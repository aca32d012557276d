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
// each shard consumes its subsequence in stream order (a shard runs on one
// worker at a time, with its chunks in FIFO order), and shard instances
// share no state — so every per-shard RunResult, and therefore the
// aggregate, is bit-identical regardless of the worker-thread count and of
// pinning. Tests enforce equality against independent per-shard
// sequential runs and across thread counts.
//
// Open loops: run() takes open loops only. With one shard it delegates to
// sim::run_source. Every multi-shard open loop runs one demux loop,
// whatever the worker count. The caller thread fills each batch once,
// routes each request with one ShardPlan::route call into per-shard
// chunks, and flushes every full chunk: with one worker it steps the
// chunk inline, otherwise it appends the chunk to its shard's FIFO. The
// workers are work-conserving: any idle worker takes any shard that has
// queued chunks and that no other worker is running, and steps its chunks
// in order while chunks remain, so shards move between workers from chunk
// to chunk. All FIFOs together hold a bounded number of chunks. Each
// request is generated exactly once, and the source is consumed from
// wherever it stands — the engine never calls fork() or split().
//
// Closed loops: run_split, at every shard count, one shard included. The
// caller hands it one per-shard source per shard, built up front — for
// the FIB router, fib::RouterSource::split: one event producer generates
// the stream once, in reference order, and hands each mirror its shard's
// events. Worker w runs the shards it owns (s % workers == w); on that
// worker each shard alternates fill → step_batch → observe (the
// closed-loop contract of core/request_source.hpp), the worker's shards
// interleaved round-robin one chunk per pass. No outcome crosses a
// thread: the one structure sibling mirrors share is the producer, which
// serializes generation behind its own mutex. Per-shard results are
// therefore bit-identical for every thread count and equal to the
// reference event loop fib::run_router_sim over each shard (the
// differential suite in tests/test_engine_closed_loop.cpp enforces this
// for every registered algorithm). run() refuses a closed-loop source at
// every shard count, before it resets an instance or reads the stream.
//
// Threads and failures: the constructor builds every instance on the
// caller thread and starts none. run() and run_split share one pool. It
// spawns the workers — none when one worker suffices, and then the caller
// thread does all the work — and runs the caller's part (run()'s demux
// loop) on the caller thread. The first exception thrown on any thread
// wins: every other thread is stopped at its next chunk or pass, and the
// exception is rethrown once all have joined. So run() rethrows whichever
// of a demux error and a worker error came first, and after a demux error
// the workers stop without stepping the chunks still queued; the
// instances are reset by the next run.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/request_source.hpp"
#include "engine/shard_plan.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"

namespace treecache::engine {

struct EngineConfig {
  /// Requested shard count; the plan caps it at the number of top-level
  /// subtrees. 1 = unsharded (run() delegates to sim::run_source).
  std::size_t shards = 1;
  /// Worker threads for the sharded path; 0 picks one per shard, capped at
  /// the hardware concurrency. Never more than one worker per shard.
  std::size_t threads = 1;
  /// Demux chunk size: requests handed to one shard per step_batch call,
  /// and run_split's fill buffer. Single-shard plans always use
  /// sim::run_source's batch — the constructor normalizes this field
  /// accordingly, so config() reports the geometry actually used.
  std::size_t batch = sim::kDriverBatchSize;
  /// Pin each run's worker w to CPU w % hardware_concurrency (Linux
  /// sched_setaffinity; a no-op elsewhere and when affinity is denied).
  /// Pinning acts at run time only: every instance is built on the caller
  /// thread either way. Only effective when the run actually uses more than
  /// one worker; the constructor normalizes it to false otherwise, so
  /// config() reports what was done.
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
  /// normalization); worker_cpus[w] is the CPU the run's worker w landed
  /// on, or -1 when the affinity call failed (reported, not fatal). Empty
  /// when the run was not pinned.
  bool pinned = false;
  std::vector<int> worker_cpus;
};

class ShardedEngine {
 public:
  /// Plans the shards over `tree` and builds one registry-resolved
  /// `algorithm` instance per shard on its shard tree, all on the calling
  /// thread. `tree` must outlive the engine.
  ShardedEngine(const Tree& tree, const std::string& algorithm,
                const sim::Params& params, EngineConfig config);

  /// Resets every instance and runs the open loop `source` to exhaustion
  /// (see the header comment for the determinism contract). The source is
  /// consumed from its current position at every geometry, so a partly
  /// consumed source yields the same result at every thread count. A
  /// closed-loop source is refused — its mirrors go through run_split —
  /// before any instance is reset or the source is read. A throw from the
  /// source's fill(), the demux or any instance stops every worker at its
  /// next chunk, chunks still queued included, and the first throw is
  /// rethrown once all have joined.
  [[nodiscard]] EngineResult run(RequestSource& source);

  /// Resets every instance and runs one pre-split per-shard source per
  /// shard (mirrors[s] feeds shard s's instance, already in shard-local
  /// ids), each on the worker that owns its shard — the engine's one
  /// closed-loop path, at every shard count. The caller keeps the mirrors,
  /// so mirror-side state such as per-shard router statistics survives
  /// the run. Mirrors must be fresh (or reset) and are run to exhaustion;
  /// a throw from any mirror or instance stops every worker and is
  /// rethrown after they join.
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
  [[nodiscard]] std::size_t effective_threads() const;

  ShardPlan plan_;
  EngineConfig config_;
  std::vector<std::unique_ptr<OnlineAlgorithm>> algs_;  // one per shard
};

}  // namespace treecache::engine
