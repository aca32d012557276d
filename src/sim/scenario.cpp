#include "sim/scenario.hpp"

#include "sim/sweep.hpp"
#include "util/rng.hpp"

namespace treecache::sim {

ScenarioResult run_scenario(const Tree& tree, const Scenario& scenario,
                            bool validate_every_step) {
  // Workloads stream: the scenario never materializes its trace, so the
  // run's memory is O(tree) regardless of params["length"].
  const auto source =
      make_source(scenario.workload, tree, scenario.params, scenario.seed);
  const auto alg = make_algorithm(scenario.algorithm, tree, scenario.params);
  ScenarioResult out{.scenario = scenario, .run = {}};
  out.run = run_source(*alg, *source, validate_every_step);
  return out;
}

std::vector<ScenarioResult> run_grid(
    const Tree& tree, const std::vector<std::string>& algorithms,
    const std::vector<std::string>& workloads, const Params& base,
    std::uint64_t seed) {
  // Resolve every name up front so a typo fails before any cell runs.
  for (const auto& name : algorithms) {
    (void)AlgorithmRegistry::instance().at(name);
  }
  for (const auto& name : workloads) {
    (void)WorkloadRegistry::instance().at(name);
  }
  // One seed per workload *column*, so every algorithm in a column sees the
  // identical trace and the table compares algorithms, not trace draws.
  std::vector<std::uint64_t> column_seeds(workloads.size());
  Rng seeder(seed);
  for (auto& s : column_seeds) s = seeder();

  const std::size_t cells = algorithms.size() * workloads.size();
  return parallel_sweep<ScenarioResult>(
      cells, seed, [&](std::size_t i, Rng&) {
        Scenario cell{.algorithm = algorithms[i / workloads.size()],
                      .workload = workloads[i % workloads.size()],
                      .params = base,
                      .seed = column_seeds[i % workloads.size()]};
        return run_scenario(tree, cell);
      });
}

}  // namespace treecache::sim
