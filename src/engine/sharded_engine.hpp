// Sharded execution engine: many algorithm instances, one request stream.
//
// A ShardedEngine owns one OnlineAlgorithm instance per shard of a
// ShardPlan (each built by the registry over its shard tree, each with the
// full per-instance capacity — the line-card model: every card holds its
// own TCAM slice). run() pulls batches from a RequestSource on the caller
// thread, routes every request to the shard owning its node, and lets
// worker threads drain per-shard queues through the batched
// OnlineAlgorithm::step_batch hot path.
//
// Determinism contract: routing is a pure function of the requested node,
// each shard consumes its subsequence in stream order (a shard is pinned
// to one worker; queues are FIFO), and shard instances share no state — so
// every per-shard RunResult, and therefore the aggregate, is bit-identical
// regardless of the worker-thread count, including the sequential
// threads=1 demux. Tests enforce equality against independent per-shard
// sequential runs and across thread counts.
//
// Open loops: every multi-shard open loop takes the demux, whatever the
// worker count. The caller thread fills each batch once, routes each
// request with ShardPlan::shard_of/to_local into per-shard chunks, and
// hands every full chunk to the worker that owns the shard (a bounded
// FIFO per worker; with one worker it steps the chunk inline). Each
// request is generated exactly once, and the source is consumed from
// wherever it stands — the engine never calls fork() or split() on an
// open loop.
//
// Closed loops: with one shard the engine delegates to sim::run_source,
// which feeds outcomes back to the source, so closed-loop sources (the FIB
// router) run unchanged. With multiple shards a closed-loop source is
// split into per-shard mirrors (RequestSource::split — for the FIB router
// a SplitKind::kShared split: one event producer generates the stream
// once, mirrors consume per-shard event queues) and run through a
// per-shard outcome feedback loop: the producer thread fills each mirror
// and dispatches the chunk to the shard's pinned worker; the worker steps
// it, accumulating outcomes into a flattened OutcomeBuffer, and publishes
// sub-chunks of at most EngineConfig::feedback outcomes into the shard's
// single-slot feedback ring (an O(1) buffer swap — no per-outcome heap
// copies); the producer drains the rings into the mirrors' observe_batch()
// — in per-shard order — and refills a mirror only once its whole chunk
// has fed back. Feedback never crosses shards, outcomes may complete out
// of order globally, and each shard's closed loop is exactly the
// sequential fill → step → observe alternation, so per-shard results are
// bit-identical for every thread count and equal to independent per-shard
// sequential runs (the differential suite in
// tests/test_engine_closed_loop.cpp enforces this for every registered
// algorithm). A closed-loop source whose split() returns empty is refused
// with more than one shard.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/request_source.hpp"
#include "engine/shard_plan.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"

namespace treecache {
class TreeCache;
}

namespace treecache::engine {

struct EngineConfig {
  /// Requested shard count; the plan caps it at the number of top-level
  /// subtrees. 1 = unsharded (delegates to sim::run_source).
  std::size_t shards = 1;
  /// Worker threads for the sharded path; 0 picks one per shard, capped at
  /// the hardware concurrency. Never more than one worker per shard.
  std::size_t threads = 1;
  /// Demux chunk size: requests handed to one shard per step_batch call.
  /// Single-shard plans run through sim::run_source, whose batch is always
  /// kDriverBatchSize — the constructor normalizes this field accordingly,
  /// so config() reports the geometry actually used.
  std::size_t batch = sim::kDriverBatchSize;
  /// Closed-loop runs only: a worker publishes its flattened outcomes to
  /// the shard's feedback ring whenever this many have accumulated (and at
  /// the end of each chunk), then waits for the producer to drain the ring
  /// before publishing more. Small values backpressure workers instead of
  /// growing memory; must be >= 1 (1 = per-outcome handoff).
  std::size_t feedback = 1024;
  /// Pin worker w to CPU w % hardware_concurrency (Linux sched_setaffinity;
  /// a no-op elsewhere and when affinity is denied). Shard instances are
  /// then also *constructed* on their pinned worker, so each shard's
  /// NodeState block and scratch arena are first-touched — hence placed —
  /// on the core (and NUMA node) that runs it. Only effective when the run
  /// actually uses more than one worker; the constructor normalizes it to
  /// false otherwise, so config() reports what was done.
  bool pin_threads = false;
};

struct EngineResult {
  /// Aggregate over shards: costs and tallies are sums, max_cache_size is
  /// the largest single-instance peak, final_cache_size the total cached
  /// across instances, wall_seconds the engine wall time (per-shard results
  /// carry no wall time of their own).
  sim::RunResult total;
  std::vector<sim::RunResult> per_shard;
  std::size_t shards = 0;
  std::size_t threads = 0;  // workers actually used
  /// True iff the run used pinned workers (EngineConfig::pin_threads after
  /// normalization); worker_cpus[w] is the CPU worker w landed on, or -1
  /// when the affinity call failed (reported, not fatal).
  bool pinned = false;
  std::vector<int> worker_cpus;
};

class ShardedEngine {
 public:
  /// Plans the shards over `tree` and builds one registry-resolved
  /// `algorithm` instance per shard on its shard tree. `tree` must outlive
  /// the engine.
  ShardedEngine(const Tree& tree, const std::string& algorithm,
                const sim::Params& params, EngineConfig config);

  /// Resets every instance and runs `source` to exhaustion. See the header
  /// comment for the determinism and closed-loop contracts. An open loop
  /// is consumed from the source's current position at every geometry, so
  /// a partly consumed source yields the same result at every thread
  /// count. Only a multi-shard closed loop is split() into mirrors and
  /// routed through run_split (it must be shardable or the run is
  /// refused); its mirrors replay the stream from the very beginning —
  /// pass a fresh or reset source.
  [[nodiscard]] EngineResult run(RequestSource& source);

  /// Resets every instance and runs one pre-split per-shard source per
  /// shard (mirrors[s] feeds shard s's instance, already in shard-local
  /// ids). Callers that need mirror-side state afterwards — e.g. per-shard
  /// router statistics — split themselves and keep the mirrors; run() is
  /// sugar over this for everyone else. Mirrors must be fresh (or reset)
  /// and are run to exhaustion.
  [[nodiscard]] EngineResult run_split(
      std::span<const std::unique_ptr<RequestSource>> mirrors);

  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  /// The configuration as normalized by the constructor (see
  /// EngineConfig::batch) — what result documents should echo.
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] const OnlineAlgorithm& algorithm(std::size_t s) const {
    return *algs_[s];
  }

 private:
  /// Steps one chunk on shard `s`. When the instance is the paper's TC the
  /// call goes through a cached concrete TreeCache pointer — TreeCache is
  /// final, so the compiler emits a direct (inlinable) call into the
  /// preorder-SoA batch loop with no virtual dispatch anywhere on the
  /// per-request path. Every other algorithm takes the virtual step_batch.
  void step_shard(std::size_t s, std::span<const Request> requests,
                  OutcomeSink& sink);

  [[nodiscard]] std::size_t effective_threads() const;
  /// Sums per-shard results (already finalized from the instances) into
  /// out.total, in shard order — fixed order, bit-reproducible totals.
  void finalize(EngineResult& out) const;
  void run_split_threaded(
      std::span<const std::unique_ptr<RequestSource>> mirrors,
      EngineResult& out, std::size_t workers);

  ShardPlan plan_;
  EngineConfig config_;
  /// CPU each worker was pinned to at construction (-1 = affinity denied);
  /// empty when pin_threads is off. Run-time pools re-pin worker w to the
  /// same w % hardware_concurrency slot.
  std::vector<int> worker_cpus_;
  std::vector<std::unique_ptr<OnlineAlgorithm>> algs_;  // one per shard
  /// algs_[s] downcast once at construction: non-null iff shard s runs the
  /// concrete TreeCache (the step_shard fast path), non-owning.
  std::vector<TreeCache*> tc_;
};

}  // namespace treecache::engine
