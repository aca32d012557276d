#include "sim/fib_engine.hpp"

#include "engine/sharded_engine.hpp"
#include "fib/fib_workloads.hpp"
#include "fib/router_source.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace treecache::sim {

fib::RouterSimConfig fib_router_config(const Params& params,
                                       std::uint64_t seed) {
  const double update_probability =
      params.get_double("update-prob", 0.01, 0.0, 1.0);
  TC_CHECK(update_probability < 1.0,
           "parameter update-prob=" + params.get("update-prob", "") +
               " must lie below 1: the run ends after its packets, and at "
               "1 every event is an update");
  return fib::RouterSimConfig{
      .packets = params.get_u64("packets", 100000),
      .zipf_skew = params.get_double("skew", 1.0),
      .update_probability = update_probability,
      .alpha = params.alpha(),
      .seed = seed};
}

FibScenarioResult run_fib_scenario(const fib::RuleTree& rules,
                                   const FibScenario& scenario) {
  // The router stream splits into one closed-loop mirror per shard of the
  // engine's plan (one for the trivial plan), and each engine worker runs
  // the closed loops of the shards it owns. The mirrors outlive the run,
  // so their router statistics can be aggregated into the result.
  engine::ShardedEngine eng(rules.tree, scenario.algorithm, scenario.params,
                            scenario.engine);
  const fib::RouterSource source(
      rules, fib_router_config(scenario.params, scenario.seed));
  const auto mirrors = source.split(eng.plan());
  const engine::EngineResult result = eng.run_split(mirrors);
  FibScenarioResult out{.scenario = scenario,
                        .router = {},
                        .shards = result.shards,
                        .threads = result.threads};
  for (const auto& part : mirrors) {
    const auto* mirror =
        dynamic_cast<const fib::RouterMirrorSource*>(part.get());
    TC_CHECK(mirror != nullptr,
             "RouterSource::split must yield router mirrors");
    out.router += mirror->stats();
  }
  out.router.algorithm_cost = result.total.cost;
  return out;
}

FibScenarioResult run_fib_scenario(const FibScenario& scenario) {
  return run_fib_scenario(fib::shared_rule_tree(scenario.params), scenario);
}

std::vector<FibScenarioResult> run_fib_sweep(const fib::RuleTree& rules,
                                             const FibSweepAxes& axes,
                                             const Params& base,
                                             std::uint64_t seed,
                                             engine::EngineConfig engine) {
  TC_CHECK(!axes.algorithms.empty() && !axes.skews.empty() &&
               !axes.capacities.empty() && !axes.alphas.empty(),
           "every sweep axis needs at least one value");
  // Resolve every name up front so a typo fails before any cell runs.
  for (const auto& name : axes.algorithms) {
    (void)AlgorithmRegistry::instance().at(name);
  }
  // One traffic seed per (skew, capacity, alpha) point: all algorithms at
  // a point replay the identical packet/update stream.
  const std::size_t points =
      axes.skews.size() * axes.capacities.size() * axes.alphas.size();
  const std::vector<std::uint64_t> seeds = point_seeds(seed, points);
  std::vector<FibScenarioResult> cells;
  cells.reserve(axes.algorithms.size() * points);
  for (const std::string& algorithm : axes.algorithms) {
    std::size_t point = 0;
    for (const double skew : axes.skews) {
      for (const std::size_t capacity : axes.capacities) {
        for (const std::uint64_t alpha : axes.alphas) {
          FibScenario cell{.algorithm = algorithm,
                           .params = base,
                           .seed = seeds[point++],
                           .engine = engine};
          cell.params.set("skew", util::format_double(skew));
          cell.params.set("capacity", std::to_string(capacity));
          cell.params.set("alpha", std::to_string(alpha));
          cells.push_back(run_fib_scenario(rules, cell));
        }
      }
    }
  }
  return cells;
}

}  // namespace treecache::sim
