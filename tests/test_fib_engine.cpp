// FIB scenario family through the registry: fib* workload registration,
// the closed-loop sim/fib_engine (scenarios + sweeps), grid integration,
// and the JSON result documents.
#include "sim/fib_engine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "fib/fib_workloads.hpp"
#include "sim/reporting.hpp"
#include "sim/scenario.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"

namespace treecache {
namespace {

sim::Params small_fib_params() {
  sim::Params p;
  p.set("rules", "300");
  p.set("length", "4000");
  p.set("packets", "4000");
  p.set("alpha", "4");
  p.set("capacity", "32");
  return p;
}

TEST(FibWorkloads, RuleTreeFromParamsIsDeterministic) {
  const sim::Params p = small_fib_params();
  const fib::RuleTree a = fib::rule_tree_from_params(p);
  const fib::RuleTree b = fib::rule_tree_from_params(p);
  EXPECT_EQ(a.tree.parent_array(), b.tree.parent_array());
  EXPECT_EQ(a.tree.size(), 301u);  // rules + artificial default root
}

TEST(FibWorkloads, NamesAreClassified) {
  EXPECT_TRUE(fib::is_fib_workload_name("fib"));
  EXPECT_TRUE(fib::is_fib_workload_name("fib-stable"));
  EXPECT_TRUE(fib::is_fib_workload_name("fib-churn"));
  EXPECT_FALSE(fib::is_fib_workload_name("zipf"));
  EXPECT_FALSE(fib::is_fib_workload_name("fibx"));
}

TEST(FibWorkloads, ProduceValidTracesOnTheirRuleTree) {
  const sim::Params p = small_fib_params();
  const fib::RuleTree rt = fib::rule_tree_from_params(p);
  for (const std::string name : {"fib", "fib-stable", "fib-churn"}) {
    SCOPED_TRACE(name);
    const Trace trace = sim::make_workload(name, rt.tree, p, 5);
    ASSERT_FALSE(trace.empty());
    std::size_t negatives = 0;
    for (const Request& r : trace) {
      ASSERT_LT(r.node, rt.tree.size());
      negatives += r.sign == Sign::kNegative ? 1u : 0u;
    }
    if (name == "fib-stable") {
      EXPECT_EQ(negatives, 0u) << "fib-stable must not contain updates";
    }
  }
}

TEST(FibWorkloads, MaxLenBeyondThePrefixWidthIsRefused) {
  // max-len narrows to a uint8_t prefix length: 264 used to wrap to /8.
  for (const char* text : {"33", "264"}) {
    sim::Params params = small_fib_params();
    params.set("max-len", text);
    try {
      (void)fib::rib_config_from_params(params);
      ADD_FAILURE() << "max-len " << text << " was accepted";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("max-len"), std::string::npos)
          << e.what();
    }
  }
  sim::Params params = small_fib_params();
  params.set("max-len", "32");
  EXPECT_EQ(fib::rib_config_from_params(params).max_length, 32u);
}

TEST(FibWorkloads, RejectForeignTrees) {
  Rng rng(3);
  const Tree foreign = trees::random_recursive(301, rng);
  EXPECT_THROW(
      (void)sim::make_source("fib", foreign, small_fib_params(), 3),
      CheckFailure);
}

// The scenario engine drives the closed loop through RouterSource::split
// and run_split, one mirror for one shard; every statistic and the
// algorithm's cost must match the self-contained reference event loop
// (fib/router_sim.hpp) across the seeded algorithm × capacity × seed grid —
// the mirror the source rebuilds from StepOutcome feedback has to track
// the real cache exactly.
TEST(FibEngine, UnifiedDriverMatchesReferenceRouterSim) {
  const sim::Params base = small_fib_params();
  const fib::RuleTree rt = fib::rule_tree_from_params(base);
  for (const char* algorithm : {"tc", "lru", "lruinv", "local", "none"}) {
    for (const std::uint64_t seed : {1u, 7u}) {
      for (const char* capacity : {"16", "64"}) {
        SCOPED_TRACE(std::string(algorithm) + " capacity=" + capacity +
                     " seed=" + std::to_string(seed));
        sim::Params params = base;
        params.set("capacity", capacity);
        params.set("update-prob", "0.03");

        const auto reference_alg =
            sim::make_algorithm(algorithm, rt.tree, params);
        const auto reference = fib::run_router_sim(
            rt, *reference_alg, sim::fib_router_config(params, seed));

        const auto unified = sim::run_fib_scenario(
            rt, {.algorithm = algorithm, .params = params, .seed = seed,
                 .engine = {}});

        EXPECT_EQ(unified.router.packets, reference.packets);
        EXPECT_EQ(unified.router.hits, reference.hits);
        EXPECT_EQ(unified.router.misses, reference.misses);
        EXPECT_EQ(unified.router.updates, reference.updates);
        EXPECT_EQ(unified.router.cached_updates, reference.cached_updates);
        EXPECT_EQ(unified.router.forwarding_errors,
                  reference.forwarding_errors);
        EXPECT_EQ(unified.router.algorithm_cost, reference.algorithm_cost);
      }
    }
  }
}

TEST(FibEngine, ScenarioRunsEndToEndThroughRegistry) {
  sim::FibScenario scenario{
      .algorithm = "tc", .params = small_fib_params(), .seed = 11,
      .engine = {}};
  scenario.params.set("skew", "1.1");
  scenario.params.set("update-prob", "0.02");
  const auto result = sim::run_fib_scenario(scenario);
  EXPECT_EQ(result.router.packets, 4000u);
  EXPECT_EQ(result.router.hits + result.router.misses +
                result.router.forwarding_errors,
            result.router.packets);
  EXPECT_EQ(result.router.forwarding_errors, 0u);
  EXPECT_GT(result.router.hits, 0u) << "cache never got hot";
  EXPECT_GT(result.router.updates, 0u);
  EXPECT_GT(result.router.algorithm_cost.total(), 0u);
}

TEST(FibEngine, SweepIsDeterministicAndSharesTrafficPerPoint) {
  const fib::RuleTree rt = fib::rule_tree_from_params(small_fib_params());
  sim::FibSweepAxes axes;
  axes.algorithms = {"tc", "lru", "none"};
  axes.skews = {0.8, 1.2};
  axes.capacities = {16, 64};
  axes.alphas = {4};
  const auto run = [&] {
    return sim::run_fib_sweep(rt, axes, small_fib_params(), 42);
  };
  const auto cells = run();
  ASSERT_EQ(cells.size(), 3u * 2u * 2u);

  // All algorithms at one (skew, capacity, alpha) point replay the same
  // event stream: packet and update counts must agree across algorithms.
  const std::size_t points = 4;
  for (std::size_t point = 0; point < points; ++point) {
    for (std::size_t alg = 1; alg < axes.algorithms.size(); ++alg) {
      const auto& first = cells[point].router;
      const auto& other = cells[alg * points + point].router;
      EXPECT_EQ(first.packets, other.packets);
      EXPECT_EQ(first.updates, other.updates);
    }
  }
  // Cells are ordered algorithm-major with the axes in the params.
  EXPECT_EQ(cells.front().scenario.algorithm, "tc");
  EXPECT_EQ(cells.front().scenario.params.get("skew", ""), "0.8");
  EXPECT_EQ(cells.back().scenario.algorithm, "none");
  EXPECT_EQ(cells.back().scenario.params.get("capacity", ""), "64");

  // Bit-identical on repeat (the sweep draws its point seeds up front).
  EXPECT_EQ(sim::fib_sweep_json(cells).dump(),
            sim::fib_sweep_json(run()).dump());
}

// Acceptance: run_grid sweeps FIB workloads against >= 3 registered
// algorithms, deterministically.
TEST(FibEngine, RunGridSweepsFibWorkloads) {
  sim::Params base = small_fib_params();
  const fib::RuleTree rt = fib::rule_tree_from_params(base);
  const std::vector<std::string> algorithms{"tc", "lru", "local"};
  const std::vector<std::string> workloads{"fib", "fib-stable", "fib-churn"};
  const auto run = [&] {
    return sim::run_grid(rt.tree, algorithms, workloads, base, 7);
  };
  const auto cells = run();
  ASSERT_EQ(cells.size(), 9u);
  for (const auto& cell : cells) {
    // Each of the "length" events adds one packet request or an α-chunk of
    // negative requests, so every trace has at least `length` rounds.
    EXPECT_GE(cell.run.rounds, base.get_u64("length", 0))
        << cell.scenario.algorithm << " x " << cell.scenario.workload;
  }
  // Replays are bit-identical in every accounted field (RunResult equality
  // excludes the measured wall time, which the JSON documents do carry).
  const auto replay = run();
  ASSERT_EQ(replay.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].run, replay[i].run) << "cell " << i;
  }
}

TEST(Reporting, JsonDocumentsCarrySchemas) {
  sim::Params base = small_fib_params();
  const fib::RuleTree rt = fib::rule_tree_from_params(base);
  const auto grid = sim::run_grid(rt.tree, {"tc"}, {"fib"}, base, 3);
  const std::string grid_text = sim::grid_json(grid).dump();
  EXPECT_NE(grid_text.find("\"schema\": \"treecache.grid/1\""),
            std::string::npos);
  EXPECT_NE(grid_text.find("\"total_cost\""), std::string::npos);

  const std::string run_text = sim::scenario_json(grid.front()).dump();
  EXPECT_NE(run_text.find("\"schema\": \"treecache.run/2\""),
            std::string::npos);
  EXPECT_NE(run_text.find("\"workload\": \"fib\""), std::string::npos);
  // Since treecache.run/2 every run doubles as a perf sample.
  EXPECT_NE(run_text.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(run_text.find("\"requests_per_second\""), std::string::npos);

  sim::FibScenario scenario{
      .algorithm = "tc", .params = base, .seed = 2, .engine = {}};
  const auto fib_cells =
      std::vector<sim::FibScenarioResult>{sim::run_fib_scenario(rt, scenario)};
  const std::string fib_text = sim::fib_sweep_json(fib_cells).dump();
  EXPECT_NE(fib_text.find("\"schema\": \"treecache.fib/3\""),
            std::string::npos);
  EXPECT_NE(fib_text.find("\"forwarding_errors\""), std::string::npos);
  // Since fib/2 every cell records the closed-loop engine geometry; fib/3
  // dropped its feedback bound.
  EXPECT_NE(fib_text.find("\"engine\""), std::string::npos);
  EXPECT_NE(fib_text.find("\"shards\": 1"), std::string::npos);
  EXPECT_EQ(fib_text.find("\"feedback\""), std::string::npos);
}

}  // namespace
}  // namespace treecache
