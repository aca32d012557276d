// End-to-end integration: the whole stack wired together — FIB substrate
// driving TC with specification checking, field tracking, shifting and
// certificates on one run; determinism; reset-equivalence; trace-file
// round trips through the algorithms.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/opt_bound.hpp"
#include "analysis/shifting.hpp"
#include "baselines/local_tc.hpp"
#include "baselines/lru_closure.hpp"
#include "core/field_tracker.hpp"
#include "core/invariant_checker.hpp"
#include "core/tree_cache.hpp"
#include "fib/rib_gen.hpp"
#include "fib/router_sim.hpp"
#include "fib/rule_tree.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace treecache {
namespace {

TEST(Integration, FullStackOnSmallRuleTree) {
  // A small synthetic RIB so the SpecChecker's exhaustive enumeration can
  // engage, with every analysis layer attached at once.
  Rng rng(1234);
  std::vector<fib::Prefix> prefixes;
  for (const char* text :
       {"10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24", "10.2.0.0/16",
        "192.168.0.0/16", "192.168.1.0/24", "172.16.0.0/12"}) {
    prefixes.push_back(fib::Prefix::parse(text));
  }
  const fib::RuleTree rt = fib::build_rule_tree(prefixes);
  ASSERT_EQ(rt.tree.size(), 8u);

  const std::uint64_t alpha = 2;
  const std::size_t capacity = 4;
  TreeCache tc(rt.tree, {.alpha = alpha, .capacity = capacity});
  SpecChecker checker(rt.tree, alpha, capacity, /*max_enum_candidates=*/8);
  FieldTracker tracker(rt.tree, alpha);

  const Trace trace = workload::uniform_trace(rt.tree, 800, 0.4, rng);
  for (const Request& r : trace) {
    const StepOutcome out = tc.step(r);
    ASSERT_NO_THROW(checker.observe(r, out));
    tracker.observe(r, out);
  }
  tracker.finalize();
  EXPECT_GT(checker.exhaustive_rounds(), 0u);
  tracker.verify_period_accounting();
  tracker.verify_lemma_5_3(alpha);

  for (const Field& field : tracker.fields()) {
    if (field.artificial) continue;
    const auto slots = tracker.field_slots(field);
    if (field.positive()) {
      EXPECT_NO_THROW((void)analysis::shift_positive_field_down(
          rt.tree, field, slots, alpha));
    } else {
      EXPECT_NO_THROW((void)analysis::shift_negative_field_up(
          rt.tree, field, slots, alpha));
    }
  }
  const std::uint64_t certificate = analysis::certified_opt_lower_bound(
      tracker, rt.tree.height(), {.alpha = alpha, .k_opt = capacity});
  EXPECT_LE(certificate, tc.cost().total());
}

TEST(Integration, DeterministicAcrossIdenticalRuns) {
  Rng rng(55);
  const Tree tree = trees::random_recursive(100, rng);
  const Trace trace = workload::zipf_trace(tree, 5000, 1.0, 0.3, rng);

  TreeCache a(tree, {.alpha = 4, .capacity = 20});
  TreeCache b(tree, {.alpha = 4, .capacity = 20});
  for (const Request& r : trace) {
    const StepOutcome oa = a.step(r);
    const StepOutcome ob = b.step(r);
    ASSERT_EQ(oa.paid, ob.paid);
    ASSERT_EQ(oa.change, ob.change);
    ASSERT_TRUE(std::equal(oa.changed.begin(), oa.changed.end(),
                           ob.changed.begin(), ob.changed.end()));
  }
  EXPECT_EQ(a.cost(), b.cost());
}

TEST(Integration, ResetIsEquivalentToFreshInstance) {
  Rng rng(66);
  const Tree tree = trees::random_recursive(60, rng);
  const Trace warmup = workload::uniform_trace(tree, 2000, 0.5, rng);
  const Trace trace = workload::uniform_trace(tree, 2000, 0.5, rng);

  TreeCache reused(tree, {.alpha = 3, .capacity = 10});
  (void)sim::run_trace(reused, warmup);
  reused.reset();
  const Cost after_reset = sim::run_trace(reused, trace).cost;

  TreeCache fresh(tree, {.alpha = 3, .capacity = 10});
  const Cost fresh_cost = sim::run_trace(fresh, trace).cost;
  EXPECT_EQ(after_reset, fresh_cost);
  EXPECT_EQ(reused.cache().as_vector(), fresh.cache().as_vector());
}

TEST(Integration, TraceFileRoundTripPreservesCosts) {
  Rng rng(77);
  const Tree tree = trees::random_recursive(50, rng);
  const Trace trace = workload::update_churn_trace(tree, 3000, 1.0, 6, 0.1,
                                                   rng);
  std::stringstream buffer;
  save_trace(buffer, trace);
  const Trace loaded = load_trace(buffer, tree.size());

  TreeCache a(tree, {.alpha = 6, .capacity = 12});
  TreeCache b(tree, {.alpha = 6, .capacity = 12});
  EXPECT_EQ(sim::run_trace(a, trace).cost, sim::run_trace(b, loaded).cost);
}

TEST(Integration, AllAlgorithmsSurviveAPathologicalMix) {
  // Deep tree, tiny cache, huge alpha, adversarial sign flips — nothing
  // should violate the subforest invariant or capacity.
  Rng rng(88);
  const Tree tree = trees::spider(4, 30);
  Trace trace;
  for (int i = 0; i < 4000; ++i) {
    const auto v = static_cast<NodeId>(rng.below(tree.size()));
    trace.push_back(Request{v, i % 3 == 0 ? Sign::kNegative
                                          : Sign::kPositive});
  }
  TreeCache tc(tree, {.alpha = 64, .capacity = 3});
  LruClosure lru(tree, {.alpha = 64, .capacity = 3});
  LocalTc local(tree, {.alpha = 64, .capacity = 3});
  for (OnlineAlgorithm* alg :
       std::initializer_list<OnlineAlgorithm*>{&tc, &lru, &local}) {
    const auto result =
        sim::run_trace(*alg, trace, /*validate_every_step=*/true);
    EXPECT_LE(result.max_cache_size, 3u) << alg->name();
  }
}

TEST(Integration, RouterSimAgreesWithTraceDrivenCosts) {
  // The router simulation and a pre-generated workload must charge TC
  // identically for the same random stream.
  Rng rng(99);
  const auto rib = fib::generate_rib({.rules = 300}, rng);
  const fib::RuleTree rt = fib::build_rule_tree(rib);
  const std::uint64_t alpha = 4;

  TreeCache via_sim(rt.tree, {.alpha = alpha, .capacity = 40});
  const auto sim_result = fib::run_router_sim(
      rt, via_sim,
      {.packets = 5000, .zipf_skew = 1.0, .update_probability = 0.02,
       .alpha = alpha, .seed = 42});

  // Every miss feeds exactly one paid positive request; paid negatives are
  // bounded by the α-chunks of updates that hit cached rules.
  EXPECT_GE(sim_result.algorithm_cost.service, sim_result.misses);
  EXPECT_LE(sim_result.algorithm_cost.service,
            sim_result.misses + sim_result.cached_updates * alpha);
  EXPECT_EQ(sim_result.forwarding_errors, 0u);
  EXPECT_GT(sim_result.updates, 0u);
}

}  // namespace
}  // namespace treecache
