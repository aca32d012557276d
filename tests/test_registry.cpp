// The registry is the extension point every future policy/workload PR plugs
// into, so these tests enumerate it exhaustively: every registered algorithm
// must run cleanly against a smoke workload, and every registered workload
// must produce a valid trace. Its Params, like the CLI's Flags, must read a
// number only from text that is that number and nothing else.
#include "sim/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "fib/fib_workloads.hpp"
#include "rib/workloads.hpp"
#include "sim/fib_engine.hpp"
#include "sim/simulator.hpp"
#include "tools/flags.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"
#include "workload_trees.hpp"

namespace treecache {
namespace {

sim::Params smoke_params() {
  sim::Params p;
  p.set("alpha", "2");
  p.set("capacity", "6");
  p.set("length", "200");
  return p;
}

TEST(Registry, ExpectedAlgorithmsAreRegistered) {
  const auto names = sim::AlgorithmRegistry::instance().names();
  for (const char* expected :
       {"tc", "naive", "local", "lru", "lruinv", "none"}) {
    EXPECT_TRUE(std::ranges::count(names, expected) == 1)
        << "missing algorithm registration: " << expected;
  }
}

TEST(Registry, ExpectedWorkloadsAreRegistered) {
  const auto names = sim::WorkloadRegistry::instance().names();
  for (const char* expected :
       {"uniform", "zipf", "zipfleaf", "hotspot", "churn", "fib",
        "fib-stable", "fib-churn", "fib-real", "concat", "mix",
        "churn-inject"}) {
    EXPECT_TRUE(std::ranges::count(names, expected) == 1)
        << "missing workload registration: " << expected;
  }
}

TEST(Registry, ExpectedOfflineEvaluatorsAreRegistered) {
  const auto names = sim::OfflineEvaluatorRegistry::instance().names();
  for (const char* expected : {"opt", "static"}) {
    EXPECT_TRUE(std::ranges::count(names, expected) == 1)
        << "missing offline evaluator registration: " << expected;
  }
}

// Every algorithm × a smoke workload: one simulator run must complete with
// the subforest invariant validated after every step.
TEST(Registry, EveryAlgorithmRunsOneSmokeTrace) {
  Rng rng(7);
  const Tree tree = trees::random_recursive(24, rng);
  const sim::Params params = smoke_params();
  const Trace trace = sim::make_workload("zipf", tree, params, rng());
  ASSERT_FALSE(trace.empty());

  for (const std::string& name :
       sim::AlgorithmRegistry::instance().names()) {
    SCOPED_TRACE("algorithm: " + name);
    auto alg = sim::make_algorithm(name, tree, params);
    ASSERT_NE(alg, nullptr);
    EXPECT_FALSE(alg->name().empty());

    // One explicit step runs cleanly...
    const StepOutcome outcome = alg->step(trace.front());
    EXPECT_LE(outcome.service_cost(), 1u);

    // ...and so does a whole validated trace from a fresh state.
    alg->reset();
    EXPECT_EQ(alg->cost().total(), 0u);
    const auto result =
        sim::run_trace(*alg, trace, /*validate_every_step=*/true);
    EXPECT_EQ(result.rounds, trace.size());
    EXPECT_EQ(result.cost.total(), alg->cost().total());
  }
}

TEST(Registry, EveryWorkloadProducesAValidTrace) {
  Rng rng(11);
  const Tree generic_tree = trees::random_recursive(40, rng);
  sim::Params params = smoke_params();
  params.set("rules", "60");  // keep the fib* substrate test-sized
  params.set("rib-feed",
             std::string(TREECACHE_TEST_DATA_DIR) + "/rib_v4.feed");
  const fib::RuleTree rule_tree = fib::rule_tree_from_params(params);

  for (const std::string& name :
       sim::WorkloadRegistry::instance().names()) {
    SCOPED_TRACE("workload: " + name);
    const Tree& tree = testing_util::tree_for_workload(
        name, params, rule_tree.tree, generic_tree);
    const Trace trace = sim::make_workload(name, tree, params, rng());
    EXPECT_FALSE(trace.empty());
    for (const Request& r : trace) {
      ASSERT_LT(r.node, tree.size());
    }
  }
}

// `treecache list` renders exactly these tables: every registered name of
// all four registries must appear in its registry's describe() output.
TEST(Registry, DescribeCoversEveryRegisteredName) {
  const auto check = [](const std::string& described,
                        const std::vector<std::string>& names) {
    for (const std::string& name : names) {
      EXPECT_NE(described.find("  " + name + " "), std::string::npos)
          << "describe() misses: " << name;
    }
  };
  check(sim::AlgorithmRegistry::instance().describe(),
        sim::AlgorithmRegistry::instance().names());
  check(sim::WorkloadRegistry::instance().describe(),
        sim::WorkloadRegistry::instance().names());
  check(sim::OfflineEvaluatorRegistry::instance().describe(),
        sim::OfflineEvaluatorRegistry::instance().names());
}

TEST(Registry, UnknownNamesThrowWithSuggestions) {
  const Tree tree = trees::path(4);
  EXPECT_THROW((void)sim::make_algorithm("nope", tree, {}), CheckFailure);
  EXPECT_THROW((void)sim::make_source("nope", tree, {}, 1), CheckFailure);
  EXPECT_THROW((void)sim::make_workload("nope", tree, {}, 1),
               CheckFailure);
  EXPECT_THROW((void)sim::evaluate_offline("nope", tree, {}, {}),
               CheckFailure);
}

TEST(Registry, DuplicateRegistrationIsRejected) {
  EXPECT_THROW(sim::AlgorithmRegistry::instance().add(
                   "tc", "dup",
                   [](const Tree&, const sim::Params&)
                       -> std::unique_ptr<OnlineAlgorithm> {
                     return nullptr;
                   }),
               CheckFailure);
}

TEST(Registry, ParamsParseAndDefault) {
  sim::Params p;
  p.set("alpha", "3");
  p.set("skew", "0.9");
  EXPECT_EQ(p.alpha(), 3u);
  EXPECT_EQ(p.capacity(), 64u);  // library default
  EXPECT_DOUBLE_EQ(p.get_double("skew", 1.0), 0.9);
  EXPECT_EQ(p.get("missing", "x"), "x");
  p.set("alpha", "junk");
  EXPECT_THROW((void)p.alpha(), CheckFailure);
}

// Texts a number must not read as. std::stoull and std::stod accepted
// each: "-1" as 2^64 - 1, "4x" as 4, " 7" as 7, "nan" as NaN.
constexpr const char* kMalformedNumbers[] = {"-1", "4x", "", " 7", "nan"};

/// Runs `parse`, expects it to throw a CheckFailure, and returns the
/// message.
template <typename Parse>
std::string failure_of(const Parse& parse) {
  try {
    (void)parse();
  } catch (const CheckFailure& e) {
    return e.what();
  }
  ADD_FAILURE() << "parsed without a failure";
  return "";
}

TEST(Params, NumbersMustBeTheWholeText) {
  for (const char* text : kMalformedNumbers) {
    SCOPED_TRACE(std::string("'") + text + "'");
    const sim::Params p(std::map<std::string, std::string>{{"length", text}});
    EXPECT_NE(failure_of([&] { return p.get_u64("length", 1); })
                  .find("parameter length="),
              std::string::npos);
    if (std::string(text) != "-1") {
      EXPECT_NE(failure_of([&] { return p.get_double("length", 1.0); })
                    .find("parameter length="),
                std::string::npos);
    }
  }
  // What the README and CI pass still parses.
  const sim::Params p(std::map<std::string, std::string>{
      {"length", "10000000"}, {"skew", "1.1"}, {"update-prob", "0.02"}});
  EXPECT_EQ(p.get_u64("length", 1), 10000000u);
  EXPECT_DOUBLE_EQ(p.get_double("skew", 1.0), 1.1);
  EXPECT_DOUBLE_EQ(p.get_double("update-prob", 0.0), 0.02);
  EXPECT_DOUBLE_EQ(p.get_double("length", 0.0), 1e7);
}

TEST(Flags, NumbersMustBeTheWholeText) {
  const auto flags_of = [](std::vector<std::string> args) {
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    return tools::Flags(static_cast<int>(argv.size()), argv.data(), 0);
  };
  for (const char* text : kMalformedNumbers) {
    SCOPED_TRACE(std::string("'") + text + "'");
    const tools::Flags flags = flags_of({"--capacity", text});
    EXPECT_NE(failure_of([&] { return flags.get_u64("capacity", 1); })
                  .find("--capacity"),
              std::string::npos);
    if (std::string(text) != "-1") {
      EXPECT_NE(failure_of([&] { return flags.get_double("capacity", 1.0); })
                    .find("--capacity"),
                std::string::npos);
    }
  }
  const tools::Flags flags = flags_of(
      {"--shards", "8", "--length", "2000000", "--skew", "1.1", "--pin", "on"});
  EXPECT_EQ(flags.get_u64("shards", 1), 8u);
  EXPECT_EQ(flags.get_u64("length", 1), 2000000u);
  EXPECT_DOUBLE_EQ(flags.get_double("skew", 1.0), 1.1);
  EXPECT_EQ(flags.get_u64("threads", 3), 3u);  // absent: the fallback
}

TEST(Flags, ValuesAboveTheirBoundAreRefused) {
  // A value read for a narrower type is refused above its bound, naming the
  // flag or key, where a cast used to wrap it (264 read as a /8).
  std::vector<std::string> args{"--max-len", "264", "--family", "46"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  const tools::Flags flags(static_cast<int>(argv.size()), argv.data(), 0);
  EXPECT_NE(failure_of([&] { return flags.get_u64("max-len", 24, 32); })
                .find("--max-len 264 is out of range (at most 32)"),
            std::string::npos);
  EXPECT_EQ(flags.get_u64("family", 4, 46), 46u);  // the bound is inclusive
  EXPECT_EQ(flags.get_u64("max-len6", 64, 128), 64u);  // absent: fallback

  const sim::Params p(std::map<std::string, std::string>{{"max-len", "264"}});
  EXPECT_NE(failure_of([&] { return p.get_u64("max-len", 24, 32); })
                .find("parameter max-len=264 is out of range"),
            std::string::npos);
  EXPECT_EQ(p.get_u64("max-len", 24), 264u);  // unbounded by default

  // Numbers take inclusive bounds on both ends; probabilities are read
  // with [0, 1], so 7 withdraws per update or a 1.5 share of negative
  // requests is refused where it used to run.
  std::vector<std::string> prob_args{"--withdraw-prob", "7", "--neg", "-0.5",
                                     "--fresh-prob", "1", "--deagg", "0"};
  std::vector<char*> prob_argv;
  for (std::string& arg : prob_args) prob_argv.push_back(arg.data());
  const tools::Flags probs(static_cast<int>(prob_argv.size()),
                           prob_argv.data(), 0);
  EXPECT_NE(
      failure_of([&] { return probs.get_double("withdraw-prob", 0.1, 0, 1); })
          .find("--withdraw-prob 7 is out of range (at least 0, at most 1)"),
      std::string::npos);
  EXPECT_NE(failure_of([&] { return probs.get_double("neg", 0.2, 0, 1); })
                .find("--neg -0.5 is out of range"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(probs.get_double("fresh-prob", 0.5, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(probs.get_double("deagg", 0.45, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(probs.get_double("move-prob", 0.01, 0, 1), 0.01);
  EXPECT_DOUBLE_EQ(probs.get_double("withdraw-prob", 0.1), 7.0);

  const sim::Params q(std::map<std::string, std::string>{
      {"neg", "1.5"}, {"update-prob", "1"}, {"move-prob", "0"},
      {"deagg", "-0.1"}});
  EXPECT_NE(failure_of([&] { return q.get_double("neg", 0.2, 0, 1); })
                .find("parameter neg=1.5 is out of range (at least 0, at "
                      "most 1)"),
            std::string::npos);
  EXPECT_NE(failure_of([&] { return q.get_double("deagg", 0.45, 0, 1); })
                .find("parameter deagg=-0.1 is out of range"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(q.get_double("update-prob", 0.01, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(q.get_double("move-prob", 0.01, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(q.get_double("neg", 0.2), 1.5);  // unbounded by default

  // A registered workload reads its probabilities bounded.
  const Tree tree = trees::path(4);
  EXPECT_NE(failure_of([&] { return sim::make_source("uniform", tree, q, 1); })
                .find("parameter neg=1.5 is out of range"),
            std::string::npos);
  // The router reads update-prob below 1: at 1 every event is an update,
  // and no packet would end its run.
  EXPECT_NE(failure_of([&] { return sim::fib_router_config(q, 1).packets; })
                .find("parameter update-prob=1 must lie below 1"),
            std::string::npos);
}

TEST(Registry, OfflineEvaluatorsAgreeWithDirectCalls) {
  const Tree tree = trees::complete_kary(2, 2);  // 7 nodes
  sim::Params params;
  params.set("alpha", "2");
  params.set("capacity", "3");
  const Trace trace = sim::make_workload(
      "uniform", tree,
      sim::Params{{{"length", "40"}, {"neg", "0.3"}}}, 3);
  const std::uint64_t opt =
      sim::evaluate_offline("opt", tree, trace, params);
  EXPECT_GT(opt, 0u);
  // A legal online algorithm can never beat the offline optimum.
  auto tc = sim::make_algorithm("tc", tree, params);
  EXPECT_GE(sim::run_trace(*tc, trace).cost.total(), opt);
}

}  // namespace
}  // namespace treecache
