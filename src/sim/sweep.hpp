// Parameter sweeps for the benchmark harness.
//
// Each sweep point is an independent simulation run through parallel_for
// (util/parallel.hpp), in sequence, and each derives its own RNG stream from
// a seed drawn up front, so a point's result does not depend on which
// points run before it.
#pragma once

#include <cstdint>
#include <vector>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace treecache::sim {

/// Runs body(i, rng) for every index with an independent deterministic RNG
/// per point, collecting the results in order.
template <typename Result, typename Body>
std::vector<Result> parallel_sweep(std::size_t points, std::uint64_t seed,
                                   Body&& body) {
  // Pre-derive one seed per point so each point's RNG stream depends only
  // on its index.
  std::vector<std::uint64_t> seeds(points);
  Rng seeder(seed);
  for (auto& s : seeds) s = seeder();
  std::vector<Result> results(points);
  parallel_for(points, [&](std::size_t i) {
    Rng rng(seeds[i]);
    results[i] = body(i, rng);
  });
  return results;
}

}  // namespace treecache::sim
