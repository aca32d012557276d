// Scenario layer: one struct naming an (algorithm, workload, parameters)
// triple, resolved entirely through sim/registry.hpp. The CLI, tests and
// benches describe *what* to run as data; the engine owns construction,
// trace generation, seeding and (for grids) running every cell.
#pragma once

#include <string>
#include <vector>

#include "sim/registry.hpp"
#include "sim/simulator.hpp"

namespace treecache::sim {

struct Scenario {
  std::string algorithm;  // AlgorithmRegistry key
  std::string workload;   // WorkloadRegistry key
  Params params;          // alpha, capacity, length, skew, ...
  std::uint64_t seed = 1;
};

struct ScenarioResult {
  Scenario scenario;
  RunResult run;
};

/// Generates the workload, builds the algorithm, and runs the trace.
/// Both names resolve through the registries; unknown names throw
/// CheckFailure listing what is registered.
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
