// Boundary conditions across the stack: degenerate trees, extreme
// parameters, empty and single-sign traces.
#include <gtest/gtest.h>

#include "baselines/local_tc.hpp"
#include "baselines/lru_closure.hpp"
#include "baselines/opt_offline.hpp"
#include "baselines/static_opt.hpp"
#include "core/field_tracker.hpp"
#include "core/naive_tree_cache.hpp"
#include "core/tree_cache.hpp"
#include "tree/tree_builder.hpp"
#include "workload/generators.hpp"

namespace treecache {
namespace {

TEST(EdgeCases, SingleNodeTree) {
  const Tree t({kNoNode});
  TreeCache tc(t, {.alpha = 2, .capacity = 1});
  EXPECT_EQ(tc.step(positive(0)).change, ChangeKind::kNone);
  EXPECT_EQ(tc.step(positive(0)).change, ChangeKind::kFetch);
  EXPECT_TRUE(tc.cache().contains(0));
  EXPECT_EQ(tc.step(negative(0)).change, ChangeKind::kNone);
  EXPECT_EQ(tc.step(negative(0)).change, ChangeKind::kEvict);
  EXPECT_TRUE(tc.cache().empty());
  EXPECT_EQ(tc.cost().total(), 4u + 2u * 2u);
}

TEST(EdgeCases, CapacityOneOnDeepTree) {
  // Only leaves can ever be cached with capacity 1.
  const Tree t = trees::path(10);
  TreeCache tc(t, {.alpha = 1, .capacity = 1});
  Rng rng(1);
  const Trace trace = workload::uniform_trace(t, 2000, 0.3, rng);
  for (const Request& r : trace) {
    tc.step(r);
    ASSERT_LE(tc.cache().size(), 1u);
    if (tc.cache().size() == 1) {
      ASSERT_TRUE(tc.cache().contains(9));  // the only single-node subtree
    }
  }
}

TEST(EdgeCases, CapacityEqualsTreeSizeNeverRestarts) {
  Rng rng(2);
  const Tree t = trees::random_recursive(30, rng);
  TreeCache tc(t, {.alpha = 2, .capacity = t.size()});
  const Trace trace = workload::uniform_trace(t, 5000, 0.4, rng);
  std::uint64_t restarts = 0;
  for (const Request& r : trace) {
    restarts += tc.step(r).change == ChangeKind::kPhaseRestart ? 1u : 0u;
  }
  EXPECT_EQ(restarts, 0u);
  EXPECT_EQ(tc.phases().size(), 1u);
}

TEST(EdgeCases, AllNegativeTraceCostsNothing) {
  // Nothing is ever cached, so negative requests are all free.
  const Tree t = trees::complete_kary(3, 2);
  TreeCache tc(t, {.alpha = 2, .capacity = 7});
  for (NodeId v = 0; v < t.size(); ++v) {
    for (int i = 0; i < 5; ++i) tc.step(negative(v));
  }
  EXPECT_EQ(tc.cost().total(), 0u);
  EXPECT_TRUE(tc.cache().empty());
}

TEST(EdgeCases, AllPositiveEventuallyCachesEverything) {
  const Tree t = trees::complete_kary(3, 2);
  TreeCache tc(t, {.alpha = 2, .capacity = t.size()});
  Rng rng(3);
  for (int i = 0; i < 2000 && tc.cache().size() < t.size(); ++i) {
    tc.step(positive(static_cast<NodeId>(rng.below(t.size()))));
  }
  EXPECT_EQ(tc.cache().size(), t.size());
  // Once everything is cached, positives are free forever.
  const std::uint64_t before = tc.cost().total();
  for (NodeId v = 0; v < t.size(); ++v) tc.step(positive(v));
  EXPECT_EQ(tc.cost().total(), before);
}

TEST(EdgeCases, HugeAlphaNeverCaches) {
  const Tree t = trees::star(5);
  TreeCache tc(t, {.alpha = 1000000, .capacity = 6});
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const auto out =
        tc.step(positive(static_cast<NodeId>(1 + rng.below(5))));
    ASSERT_EQ(out.change, ChangeKind::kNone);
  }
  EXPECT_TRUE(tc.cache().empty());
  EXPECT_EQ(tc.cost().service, 10000u);
}

TEST(EdgeCases, AlphaPastInt64OverTreeSizeIsRefused) {
  // |X|·α must not wrap in u64 for any changeset X ⊆ T: at α = 2^63 on a
  // 2-node path, 2·α reads 0 and one paid request would fetch both nodes.
  const Tree t = trees::path(2);
  const std::uint64_t too_big = std::uint64_t{1} << 63;
  const std::uint64_t max_alpha = INT64_MAX / t.size();
  EXPECT_THROW(TreeCache(t, {.alpha = too_big, .capacity = 2}), CheckFailure);
  EXPECT_THROW(NaiveTreeCache(t, {.alpha = too_big, .capacity = 2}),
               CheckFailure);
  EXPECT_THROW(LocalTc(t, {.alpha = too_big, .capacity = 2}), CheckFailure);
  EXPECT_THROW(TreeCache(t, {.alpha = max_alpha + 1, .capacity = 2}),
               CheckFailure);
  try {
    TreeCache tc(t, {.alpha = too_big, .capacity = 2});
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos)
        << e.what();
  }

  // The largest accepted α keeps every product exact: nothing saturates.
  TreeCache fast(t, {.alpha = max_alpha, .capacity = 2});
  NaiveTreeCache naive(t, {.alpha = max_alpha, .capacity = 2});
  LocalTc local(t, {.alpha = max_alpha, .capacity = 2});
  for (int i = 0; i < 20; ++i) {
    const Request r = positive(static_cast<NodeId>(i % 2));
    ASSERT_EQ(fast.step(r).change, ChangeKind::kNone);
    ASSERT_EQ(naive.step(r).change, ChangeKind::kNone);
    ASSERT_EQ(local.step(r).change, ChangeKind::kNone);
  }
  EXPECT_EQ(fast.cost(), (Cost{.service = 20, .reorg = 0}));
  EXPECT_EQ(naive.cost(), fast.cost());
  EXPECT_EQ(local.cost(), fast.cost());
}

TEST(EdgeCases, NaiveAndFastAgreeOnDegenerateShapes) {
  for (const std::size_t n : {1u, 2u}) {
    const Tree t = trees::path(n);
    TreeCache fast(t, {.alpha = 1, .capacity = 1});
    NaiveTreeCache naive(t, {.alpha = 1, .capacity = 1});
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
      const Request r{static_cast<NodeId>(rng.below(n)),
                      rng.chance(0.5) ? Sign::kNegative : Sign::kPositive};
      const auto a = fast.step(r);
      const auto b = naive.step(r);
      ASSERT_EQ(a.paid, b.paid);
      ASSERT_EQ(a.change, b.change);
    }
    ASSERT_EQ(fast.cost(), naive.cost());
  }
}

TEST(EdgeCases, OptOfflineOnSingleNode) {
  const Tree t({kNoNode});
  Trace trace;
  for (int i = 0; i < 6; ++i) trace.push_back(positive(0));
  for (int i = 0; i < 6; ++i) trace.push_back(negative(0));
  // Prefetch (2) + evict (2) beats paying 6 + 0.
  EXPECT_EQ(opt_offline_cost(t, trace, {.alpha = 2, .capacity = 1}), 4u);
  // With a prohibitive alpha, bypassing wins.
  EXPECT_EQ(opt_offline_cost(t, trace, {.alpha = 100, .capacity = 1}), 6u);
}

TEST(EdgeCases, StaticOptWithZeroWeights) {
  const Tree t = trees::star(4);
  const std::vector<std::uint64_t> weights(t.size(), 0);
  const auto result = best_static_subforest(t, weights, 3);
  EXPECT_EQ(result.covered_weight, 0u);
  EXPECT_TRUE(result.chosen_roots.empty());  // no reason to cache anything
}

TEST(EdgeCases, LruClosureWithCapacityOne) {
  const Tree t = trees::star(3);
  LruClosure lru(t, {.alpha = 1, .capacity = 1});
  lru.step(positive(1));
  EXPECT_TRUE(lru.cache().contains(1));
  lru.step(positive(2));  // evict 1, fetch 2
  EXPECT_FALSE(lru.cache().contains(1));
  EXPECT_TRUE(lru.cache().contains(2));
  lru.step(positive(0));  // root closure needs 4 slots: bypass
  EXPECT_EQ(lru.cache().size(), 1u);
}

TEST(EdgeCases, FieldTrackerOnEmptyTrace) {
  const Tree t = trees::path(3);
  FieldTracker tracker(t, 2);
  tracker.finalize();
  ASSERT_EQ(tracker.phases().size(), 1u);
  EXPECT_EQ(tracker.phases()[0].field_count, 0u);
  EXPECT_EQ(tracker.phases()[0].k_end, 0u);
  tracker.verify_period_accounting();
  tracker.verify_lemma_5_3(2);
}

TEST(EdgeCases, RepeatedFetchEvictCycleIsStable) {
  // Alternating saturation cycles must not leak state across iterations.
  const Tree t = trees::path(2);
  TreeCache tc(t, {.alpha = 2, .capacity = 2});
  for (int cycle = 0; cycle < 100; ++cycle) {
    ASSERT_EQ(tc.step(positive(1)).change, ChangeKind::kNone);
    ASSERT_EQ(tc.step(positive(1)).change, ChangeKind::kFetch);
    ASSERT_EQ(tc.step(negative(1)).change, ChangeKind::kNone);
    ASSERT_EQ(tc.step(negative(1)).change, ChangeKind::kEvict);
  }
  EXPECT_EQ(tc.cost().service, 400u);
  EXPECT_EQ(tc.cost().reorg, 400u);
}

}  // namespace
}  // namespace treecache
