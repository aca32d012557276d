// Scenario layer: one struct naming an algorithm, a request stream and the
// parameters, resolved entirely through sim/registry.hpp. The CLI, tests and
// benches describe *what* to run as data; this layer owns construction,
// opening the stream, seeding and (for grids) running every cell.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/request_source.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"

namespace treecache::sim {

struct Scenario {
  std::string algorithm;  // AlgorithmRegistry key
  std::string workload;   // WorkloadRegistry key; empty for a trace run
  Params params;          // alpha, capacity, length, skew, ...
  std::uint64_t seed = 1;
  /// A save_trace-format file that is the request stream in place of a
  /// workload; empty for a workload run (the default, so workload
  /// scenarios may leave it out).
  std::string trace = {};
};

struct ScenarioResult {
  Scenario scenario;
  RunResult run;
};

/// The scenario's request stream: its trace file, streamed line by line
/// (FileTraceSource), or its registered workload seeded with `seed`.
/// Either way the stream never materializes, so a run's memory is O(tree)
/// whatever its length. A scenario must name exactly one of the two.
[[nodiscard]] std::unique_ptr<RequestSource> open_source(
    const Tree& tree, const Scenario& scenario);

/// Opens the stream, builds the algorithm, and runs the algorithm over it.
/// Names resolve through the registries; unknown names throw CheckFailure
/// listing what is registered.
[[nodiscard]] ScenarioResult run_scenario(const Tree& tree,
                                          const Scenario& scenario,
                                          bool validate_every_step = false);

/// Cross product: every algorithm × every workload over shared `base`
/// parameters, run cell by cell (each cell's result depends only on its
/// inputs, not on the cells before it).
/// All algorithms in a workload column share one trace seed, so the grid
/// compares algorithms on identical inputs. Cells are ordered
/// algorithm-major, matching the input order.
[[nodiscard]] std::vector<ScenarioResult> run_grid(
    const Tree& tree, const std::vector<std::string>& algorithms,
    const std::vector<std::string>& workloads, const Params& base,
    std::uint64_t seed);

}  // namespace treecache::sim
