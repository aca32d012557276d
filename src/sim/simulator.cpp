#include "sim/simulator.hpp"

#include <algorithm>
#include <array>

#include "util/stopwatch.hpp"

namespace treecache::sim {

RunResult run_source(OnlineAlgorithm& alg, RequestSource& source,
                     bool validate_every_step) {
  // Refused before the stream is read or the algorithm stepped: this loop
  // hands no outcome back, which a closed loop depends on.
  TC_CHECK(!source.is_closed_loop(),
           "sim::run_source takes open loops only; run a closed loop's "
           "per-shard mirrors through ShardedEngine::run_split");
  RunResult result;
  const Stopwatch timer;
  AccountingSink sink(result, alg, nullptr);
  std::array<Request, kDriverBatchSize> buffer;
  // Validation steps one request per step_batch call, so that the cache is
  // checked after every round.
  const std::size_t stride = validate_every_step ? 1 : buffer.size();
  for (;;) {
    const std::size_t n = source.fill(buffer);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; i += stride) {
      alg.step_batch(std::span<const Request>(buffer.data() + i,
                                              std::min(stride, n - i)),
                     sink);
      TC_CHECK(!validate_every_step || alg.cache().is_valid(),
               "cache stopped being a subforest");
    }
  }
  result.cost = alg.cost();
  result.final_cache_size = alg.cache().size();
  result.wall_seconds = timer.seconds();
  return result;
}

RunResult run_trace(OnlineAlgorithm& alg, std::span<const Request> trace,
                    bool validate_every_step) {
  TraceSource source(trace);
  return run_source(alg, source, validate_every_step);
}

}  // namespace treecache::sim
