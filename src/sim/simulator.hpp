// sim::run_source, the unsharded loop: pulls requests from an open-loop
// RequestSource and steps the algorithm through OnlineAlgorithm::step_batch
// with an AccountingSink, which aggregates statistics. run_trace is the
// span convenience over it. Sharded execution lives in
// engine/sharded_engine.hpp: run() delegates one-shard open loops here,
// and run_split — the one path for closed loops such as the FIB router's
// mirrors, one shard included — runs the fill → step → observe alternation
// per shard. All of them share the per-round accounting, so their totals
// are comparable.
#pragma once

#include <span>

#include "core/online_algorithm.hpp"
#include "core/request_source.hpp"

namespace treecache::sim {

struct RunResult {
  Cost cost;
  std::uint64_t rounds = 0;
  std::uint64_t paid_requests = 0;
  std::uint64_t paid_positive = 0;  // positive requests that cost 1 (misses)
  std::uint64_t paid_negative = 0;  // negative requests that cost 1
  std::uint64_t fetched_nodes = 0;
  std::uint64_t evicted_nodes = 0;   // via negative changesets
  std::uint64_t phase_restarts = 0;
  std::uint64_t restart_evictions = 0;  // nodes evicted by restarts
  std::size_t max_cache_size = 0;
  std::size_t final_cache_size = 0;
  // Wall-clock seconds the driver spent on the run, so every result doubles
  // as a throughput sample. Measured, hence excluded from equality: two
  // replays of one scenario are "the same run" even though their timings
  // differ.
  double wall_seconds = 0.0;

  /// Rounds per wall-clock second; 0 when no time was recorded.
  [[nodiscard]] double requests_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(rounds) / wall_seconds
                              : 0.0;
  }

  friend bool operator==(const RunResult& a, const RunResult& b) {
    return a.cost == b.cost && a.rounds == b.rounds &&
           a.paid_requests == b.paid_requests &&
           a.paid_positive == b.paid_positive &&
           a.paid_negative == b.paid_negative &&
           a.fetched_nodes == b.fetched_nodes &&
           a.evicted_nodes == b.evicted_nodes &&
           a.phase_restarts == b.phase_restarts &&
           a.restart_evictions == b.restart_evictions &&
           a.max_cache_size == b.max_cache_size &&
           a.final_cache_size == b.final_cache_size;
  }
};

/// Folds one round into `result`: payment split, changeset tallies, and the
/// running cache-size peak (`cache_size` is the cache size right after the
/// step). Shared by run_source and the sharded engine so their accounting
/// can never drift apart. cost/final_cache_size/wall_seconds are finalized
/// by the caller once the stream ends. A packet whose outcome is unpaid hit
/// the switch's cache (OnlineAlgorithm::step_batch) and stepped nothing,
/// so it is no round and leaves `result` as it was.
inline void accumulate_outcome(RunResult& result, const Request& request,
                               const StepOutcome& outcome,
                               std::size_t cache_size) {
  if (request.packet && !outcome.paid) return;
  ++result.rounds;
  if (outcome.paid) {
    ++result.paid_requests;
    if (request.sign == Sign::kPositive) {
      ++result.paid_positive;
    } else {
      ++result.paid_negative;
    }
  }
  result.evicted_nodes += outcome.also_evicted.size();
  switch (outcome.change) {
    case ChangeKind::kNone:
      break;
    case ChangeKind::kFetch:
      result.fetched_nodes += outcome.changed.size();
      break;
    case ChangeKind::kEvict:
      result.evicted_nodes += outcome.changed.size();
      break;
    case ChangeKind::kPhaseRestart:
      ++result.phase_restarts;
      result.restart_evictions += outcome.changed.size();
      break;
  }
  if (cache_size > result.max_cache_size) result.max_cache_size = cache_size;
}

/// The driver's sink: accumulates every outcome into a RunResult and,
/// when a source is attached, forwards the closed-loop feedback through
/// observe() — i.e. an observe_batch() of one, straight from the
/// algorithm's scratch, no copies; sources must accept any feedback
/// granularity. Open loops attach none: run_source and the engine's
/// open-loop demux. run_split attaches each shard's mirror, whose closed
/// loop steps and observes on one worker — see
/// engine/sharded_engine.hpp.
class AccountingSink final : public OutcomeSink {
 public:
  AccountingSink(RunResult& result, const OnlineAlgorithm& alg,
                 RequestSource* source)
      : result_(&result), alg_(&alg), source_(source) {}

  void on_outcome(const Request& request,
                  const StepOutcome& outcome) override {
    accumulate_outcome(*result_, request, outcome, alg_->cache().size());
    if (source_ != nullptr) source_->observe(outcome);
  }

 private:
  RunResult* result_;
  const OnlineAlgorithm* alg_;
  RequestSource* source_;
};

/// Requests pulled from a source per fill() call by run_source (and the
/// demux chunk the sharded engine defaults to).
inline constexpr std::size_t kDriverBatchSize = 4096;

/// Runs the open-loop source to exhaustion from the algorithm's current
/// state: pulls batches via RequestSource::fill and steps each through
/// step_batch. No outcome goes back to the source, so a closed-loop source
/// is refused — its mirrors go through ShardedEngine::run_split — before
/// the source is read or the algorithm stepped. Memory use is O(1) in the
/// stream length. When `validate_every_step` is set, each request gets its
/// own step_batch call and the cache is checked to be a subforest after it
/// (O(n) per round — test-sized runs only).
[[nodiscard]] RunResult run_source(OnlineAlgorithm& alg,
                                   RequestSource& source,
                                   bool validate_every_step = false);

/// Convenience: runs an in-memory trace through run_source via a borrowing
/// TraceSource, so both paths share one accounting loop.
[[nodiscard]] RunResult run_trace(OnlineAlgorithm& alg,
                                  std::span<const Request> trace,
                                  bool validate_every_step = false);

}  // namespace treecache::sim
