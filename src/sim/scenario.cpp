#include "sim/scenario.hpp"

#include "util/rng.hpp"

namespace treecache::sim {

std::unique_ptr<RequestSource> open_source(const Tree& tree,
                                           const Scenario& scenario) {
  TC_CHECK(scenario.workload.empty() || scenario.trace.empty(),
           "--trace and --workload are mutually exclusive");
  if (!scenario.workload.empty()) {
    return make_source(scenario.workload, tree, scenario.params,
                       scenario.seed);
  }
  TC_CHECK(!scenario.trace.empty(), "--trace or --workload is required");
  return std::make_unique<FileTraceSource>(scenario.trace, tree.size());
}

ScenarioResult run_scenario(const Tree& tree, const Scenario& scenario,
                            bool validate_every_step) {
  const auto source = open_source(tree, scenario);
  const auto alg = make_algorithm(scenario.algorithm, tree, scenario.params);
  return ScenarioResult{
      .scenario = scenario,
      .run = run_source(*alg, *source, validate_every_step)};
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
  const std::vector<std::uint64_t> column_seeds =
      point_seeds(seed, workloads.size());
  std::vector<ScenarioResult> cells;
  cells.reserve(algorithms.size() * workloads.size());
  for (const std::string& algorithm : algorithms) {
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      const Scenario cell{.algorithm = algorithm,
                          .workload = workloads[w],
                          .params = base,
                          .seed = column_seeds[w]};
      cells.push_back(run_scenario(tree, cell));
    }
  }
  return cells;
}

}  // namespace treecache::sim
