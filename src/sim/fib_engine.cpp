#include "sim/fib_engine.hpp"

#include "engine/sharded_engine.hpp"
#include "fib/fib_workloads.hpp"
#include "fib/router_source.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "util/json.hpp"

namespace treecache::sim {

fib::RouterSimConfig fib_router_config(const Params& params,
                                       std::uint64_t seed) {
  return fib::RouterSimConfig{
      .packets = params.get_u64("packets", 100000),
      .zipf_skew = params.get_double("skew", 1.0),
      .update_probability = params.get_double("update-prob", 0.01),
      .alpha = params.alpha(),
      .seed = seed};
}

FibScenarioResult run_fib_scenario(const fib::RuleTree& rules,
                                   const FibScenario& scenario) {
  // The closed-loop router is just another RequestSource. With one shard
  // the engine delegates to run_source (outcomes feed back after every
  // round); with more, the source splits into per-shard mirrors and each
  // engine worker runs the closed loops of the shards it owns — we split
  // here rather than inside run() so the mirrors' router statistics
  // survive the run and can be aggregated into the result.
  engine::ShardedEngine eng(rules.tree, scenario.algorithm, scenario.params,
                            scenario.engine);
  fib::RouterSource source(rules,
                           fib_router_config(scenario.params, scenario.seed));
  FibScenarioResult out{.scenario = scenario, .router = {}};
  out.shards = eng.plan().num_shards();
  if (out.shards == 1) {
    const engine::EngineResult result = eng.run(source);
    out.router = source.stats();
    out.router.algorithm_cost = result.total.cost;
    out.threads = result.threads;
    return out;
  }
  const auto mirrors = source.split(eng.plan());
  const engine::EngineResult result = eng.run_split(mirrors);
  out.threads = result.threads;
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
  std::vector<std::uint64_t> point_seeds(points);
  Rng seeder(seed);
  for (auto& s : point_seeds) s = seeder();

  const std::size_t cells = axes.algorithms.size() * points;
  const auto run_cell = [&](std::size_t i, Rng&) {
    const std::size_t point = i % points;
    const std::size_t alpha_i = point % axes.alphas.size();
    const std::size_t capacity_i =
        (point / axes.alphas.size()) % axes.capacities.size();
    const std::size_t skew_i =
        point / (axes.alphas.size() * axes.capacities.size());
    FibScenario cell{.algorithm = axes.algorithms[i / points],
                     .params = base,
                     .seed = point_seeds[point],
                     .engine = engine};
    cell.params.set("skew", util::format_double(axes.skews[skew_i]));
    cell.params.set("capacity",
                    std::to_string(axes.capacities[capacity_i]));
    cell.params.set("alpha", std::to_string(axes.alphas[alpha_i]));
    return run_fib_scenario(rules, cell);
  };
  return parallel_sweep<FibScenarioResult>(cells, seed, run_cell);
}

}  // namespace treecache::sim
