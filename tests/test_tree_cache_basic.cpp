// Hand-computed TC scenarios: rent-or-buy counters, aggregate saturation,
// maximality, evictions via H(u), phase restarts, cost accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/tree_cache.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace treecache {
namespace {

std::vector<NodeId> sorted(std::span<const NodeId> nodes) {
  std::vector<NodeId> v(nodes.begin(), nodes.end());
  std::sort(v.begin(), v.end());
  return v;
}

TEST(TreeCacheBasic, LeafFetchAfterAlphaRequests) {
  const Tree t = trees::path(3);  // 0 - 1 - 2
  TreeCache tc(t, {.alpha = 2, .capacity = 3});

  auto out = tc.step(positive(2));
  EXPECT_TRUE(out.paid);
  EXPECT_EQ(out.change, ChangeKind::kNone);
  EXPECT_EQ(tc.counter(2), 1u);

  out = tc.step(positive(2));
  EXPECT_TRUE(out.paid);
  EXPECT_EQ(out.change, ChangeKind::kFetch);
  EXPECT_EQ(sorted(out.changed), (std::vector<NodeId>{2}));
  EXPECT_TRUE(tc.cache().contains(2));
  EXPECT_EQ(tc.counter(2), 0u);  // counter reset on fetch
  EXPECT_EQ(tc.cost().service, 2u);
  EXPECT_EQ(tc.cost().reorg, 2u);  // alpha * 1

  // Cached now: further positive requests are free.
  out = tc.step(positive(2));
  EXPECT_FALSE(out.paid);
  EXPECT_EQ(tc.cost().service, 2u);
}

TEST(TreeCacheBasic, AggregatedFetchAcrossNodes) {
  // Two requests at node 1 and two at node 2 saturate P(1) = {1, 2}
  // (cnt 4 >= 2 nodes * alpha 2) even though neither node alone saturates
  // at the moment the last request arrives at node 1.
  const Tree t = trees::path(3);
  TreeCache tc(t, {.alpha = 2, .capacity = 3});

  EXPECT_EQ(tc.step(positive(2)).change, ChangeKind::kNone);
  EXPECT_EQ(tc.step(positive(1)).change, ChangeKind::kNone);
  EXPECT_EQ(tc.step(positive(2)).change, ChangeKind::kFetch);  // {2} alone
}

TEST(TreeCacheBasic, TopDownScanPrefersLargerSaturatedSet) {
  // Requests alternate between 1 and 2 so that P(1) = {1,2} saturates
  // exactly when P(2) = {2} is not yet saturated on the triggering round.
  const Tree t = trees::path(3);
  TreeCache tc(t, {.alpha = 2, .capacity = 3});

  EXPECT_EQ(tc.step(positive(2)).change, ChangeKind::kNone);  // cnt2=1
  EXPECT_EQ(tc.step(positive(1)).change, ChangeKind::kNone);  // cnt1=1
  // cnt1=2: P(1) has cnt 3 < 4; P(2) unaffected... third request at 1:
  auto out = tc.step(positive(1));
  // P(0): cnt=3 < 6. P(1): cnt=3 < 4. P(2)... does not contain node 1.
  EXPECT_EQ(out.change, ChangeKind::kNone);
  // Fourth request at 2: P(1) cnt=4 == 2*2 -> fetch {1,2} (maximal).
  out = tc.step(positive(2));
  EXPECT_EQ(out.change, ChangeKind::kFetch);
  EXPECT_EQ(sorted(out.changed), (std::vector<NodeId>{1, 2}));
}

TEST(TreeCacheBasic, NegativeRequestsEvictMaximalCap) {
  const Tree t = trees::path(3);
  TreeCache tc(t, {.alpha = 2, .capacity = 3});
  // Fetch {2}, then {1}.
  tc.step(positive(2));
  tc.step(positive(2));
  tc.step(positive(1));
  tc.step(positive(1));
  ASSERT_TRUE(tc.cache().contains(1));
  ASSERT_TRUE(tc.cache().contains(2));

  // Two negatives at 2: H(1) = {1} u H'(2); I(2) = 0, I(1) = -2 -> no evict.
  EXPECT_EQ(tc.step(negative(2)).change, ChangeKind::kNone);
  EXPECT_EQ(tc.step(negative(2)).change, ChangeKind::kNone);
  EXPECT_TRUE(tc.cache().contains(2));

  // Two negatives at 1: I(1) = 0 + I(2) = 0 -> evict H(1) = {1, 2}
  // (the size tie-break in val makes the larger saturated cap win).
  EXPECT_EQ(tc.step(negative(1)).change, ChangeKind::kNone);
  auto out = tc.step(negative(1));
  EXPECT_EQ(out.change, ChangeKind::kEvict);
  EXPECT_EQ(sorted(out.changed), (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(tc.cache().empty());
  EXPECT_EQ(tc.counter(1), 0u);
  EXPECT_EQ(tc.counter(2), 0u);
}

TEST(TreeCacheBasic, NegativeRequestToNonCachedIsFree) {
  const Tree t = trees::path(3);
  TreeCache tc(t, {.alpha = 2, .capacity = 3});
  const auto out = tc.step(negative(2));
  EXPECT_FALSE(out.paid);
  EXPECT_EQ(out.change, ChangeKind::kNone);
  EXPECT_EQ(tc.cost().total(), 0u);
}

TEST(TreeCacheBasic, PhaseRestartWhenFetchDoesNotFit) {
  const Tree t = trees::path(3);
  TreeCache tc(t, {.alpha = 2, .capacity = 1});
  tc.step(positive(2));
  tc.step(positive(2));  // fetch {2}, fits capacity 1
  ASSERT_EQ(tc.cache().size(), 1u);

  tc.step(positive(1));
  const auto out = tc.step(positive(1));  // P(1) = {1} saturated, 1+1 > 1
  EXPECT_EQ(out.change, ChangeKind::kPhaseRestart);
  EXPECT_EQ(sorted(out.changed), (std::vector<NodeId>{2}));
  EXPECT_EQ(sorted(out.aborted_fetch), (std::vector<NodeId>{1}));
  EXPECT_TRUE(tc.cache().empty());

  // Phase stats: finished phase with k_P = evicted + aborted = 2 > k_ONL.
  ASSERT_EQ(tc.phases().size(), 2u);
  EXPECT_TRUE(tc.phases()[0].finished);
  EXPECT_EQ(tc.phases()[0].k_end, 2u);
  EXPECT_GE(tc.phases()[0].k_end, tc.config().capacity + 1);

  // New phase: counters were reset, so the node needs alpha fresh requests.
  EXPECT_EQ(tc.step(positive(1)).change, ChangeKind::kNone);
  EXPECT_EQ(tc.step(positive(1)).change, ChangeKind::kNone);
  // P(1) = {1,2} now (2 not cached): cnt = 2 < 4. Two more at 2:
  EXPECT_EQ(tc.step(positive(2)).change, ChangeKind::kNone);
  const auto out2 = tc.step(positive(2));
  // P(1) saturated again (cnt 4 = 2*2) but |{1,2}| = 2 > capacity: restart.
  EXPECT_EQ(out2.change, ChangeKind::kPhaseRestart);
}

TEST(TreeCacheBasic, StarIndependentLeaves) {
  const Tree t = trees::star(3);
  TreeCache tc(t, {.alpha = 2, .capacity = 4});
  tc.step(positive(1));
  tc.step(positive(1));
  EXPECT_TRUE(tc.cache().contains(1));
  tc.step(positive(2));
  tc.step(positive(2));
  EXPECT_TRUE(tc.cache().contains(2));
  EXPECT_FALSE(tc.cache().contains(3));
  tc.step(positive(3));
  tc.step(positive(3));
  // All leaves cached; two requests at the root fetch it too.
  tc.step(positive(0));
  const auto out = tc.step(positive(0));
  EXPECT_EQ(out.change, ChangeKind::kFetch);
  EXPECT_EQ(sorted(out.changed), (std::vector<NodeId>{0}));
  EXPECT_EQ(tc.cache().size(), 4u);
}

TEST(TreeCacheBasic, RootFetchPullsWholeMissingSubtree) {
  const Tree t = trees::star(3);
  TreeCache tc(t, {.alpha = 1, .capacity = 4});
  // With alpha = 1: single request at a leaf fetches it.
  EXPECT_EQ(tc.step(positive(1)).change, ChangeKind::kFetch);
  // Requests at the root: P(0) = {0, 2, 3}, needs cnt 3.
  EXPECT_EQ(tc.step(positive(0)).change, ChangeKind::kNone);
  EXPECT_EQ(tc.step(positive(0)).change, ChangeKind::kNone);
  const auto out = tc.step(positive(0));
  EXPECT_EQ(out.change, ChangeKind::kFetch);
  EXPECT_EQ(sorted(out.changed), (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ(tc.cache().size(), 4u);
}

TEST(TreeCacheBasic, EvictionLeavesValidSubforestAndRoots) {
  // Cache a two-level tree fully, then evict the top only.
  const Tree t = trees::complete_kary(2, 2);  // 0 with children 1, 2
  TreeCache tc(t, {.alpha = 2, .capacity = 3});
  tc.step(positive(1));
  tc.step(positive(1));
  tc.step(positive(2));
  tc.step(positive(2));
  tc.step(positive(0));
  tc.step(positive(0));
  ASSERT_EQ(tc.cache().size(), 3u);

  // Two negatives at the root: H(0) = {0} (children have I = -2 < 0).
  tc.step(negative(0));
  const auto out = tc.step(negative(0));
  EXPECT_EQ(out.change, ChangeKind::kEvict);
  EXPECT_EQ(sorted(out.changed), (std::vector<NodeId>{0}));
  EXPECT_TRUE(tc.cache().is_valid());
  EXPECT_EQ(tc.cache().size(), 2u);
  EXPECT_TRUE(tc.cache().contains(1));
  EXPECT_TRUE(tc.cache().contains(2));
}

TEST(TreeCacheBasic, CostDecomposition) {
  const Tree t = trees::path(2);
  TreeCache tc(t, {.alpha = 4, .capacity = 2});
  for (int i = 0; i < 4; ++i) tc.step(positive(1));
  EXPECT_EQ(tc.cost().service, 4u);
  EXPECT_EQ(tc.cost().reorg, 4u);
  for (int i = 0; i < 4; ++i) tc.step(negative(1));
  EXPECT_EQ(tc.cost().service, 8u);
  EXPECT_EQ(tc.cost().reorg, 8u);
  EXPECT_EQ(tc.cost().total(), 16u);
}

TEST(TreeCacheBasic, ResetRestoresInitialState) {
  const Tree t = trees::path(3);
  TreeCache tc(t, {.alpha = 2, .capacity = 3});
  tc.step(positive(2));
  tc.step(positive(2));
  tc.reset();
  EXPECT_TRUE(tc.cache().empty());
  EXPECT_EQ(tc.cost().total(), 0u);
  EXPECT_EQ(tc.round(), 0u);
  EXPECT_EQ(tc.counter(2), 0u);
  // Behaves exactly like a fresh instance.
  tc.step(positive(2));
  const auto out = tc.step(positive(2));
  EXPECT_EQ(out.change, ChangeKind::kFetch);
}

// Regression for stale state carried across reset(): h_value_/h_size_ and
// the scratch arrays are now cleared explicitly, so a reset-then-replay
// run must be bit-identical to a fresh instance — outcomes, costs, phase
// accounting, counters and the (I, S) negative-side aggregates.
TEST(TreeCacheBasic, ResetThenReplayIsBitIdenticalToFresh) {
  Rng rng(123);
  const Tree t = trees::random_recursive(40, rng);
  // Mixed positive/negative pressure against a tiny capacity, so the first
  // run exercises fetches, evictions and phase restarts before the reset.
  const Trace trace = workload::zipf_trace(t, 3000, 1.0, 0.35, rng);
  const TreeCacheConfig config{.alpha = 2, .capacity = 5};

  TreeCache reused(t, config);
  for (const Request& r : trace) reused.step(r);
  EXPECT_GT(reused.phases().size(), 1u) << "trace too tame: no restarts";
  reused.reset();

  TreeCache fresh(t, config);
  for (const Request& r : trace) {
    const StepOutcome a = fresh.step(r);
    const StepOutcome b = reused.step(r);
    ASSERT_EQ(a.paid, b.paid);
    ASSERT_EQ(a.change, b.change);
    ASSERT_TRUE(std::ranges::equal(a.changed, b.changed));
  }
  EXPECT_EQ(fresh.cost(), reused.cost());
  EXPECT_EQ(fresh.work(), reused.work());
  EXPECT_EQ(fresh.cache().as_vector(), reused.cache().as_vector());
  for (NodeId v = 0; v < t.size(); ++v) {
    ASSERT_EQ(fresh.counter(v), reused.counter(v)) << "counter at " << v;
    if (fresh.cache().contains(v)) {
      ASSERT_EQ(fresh.debug_hI(v), reused.debug_hI(v)) << "I at " << v;
      ASSERT_EQ(fresh.debug_hS(v), reused.debug_hS(v)) << "S at " << v;
    }
  }
  ASSERT_EQ(fresh.phases().size(), reused.phases().size());
  for (std::size_t i = 0; i < fresh.phases().size(); ++i) {
    const PhaseStats& a = fresh.phases()[i];
    const PhaseStats& b = reused.phases()[i];
    EXPECT_EQ(a.first_round, b.first_round) << "phase " << i;
    EXPECT_EQ(a.last_round, b.last_round) << "phase " << i;
    EXPECT_EQ(a.finished, b.finished) << "phase " << i;
    EXPECT_EQ(a.k_end, b.k_end) << "phase " << i;
    EXPECT_EQ(a.fetches, b.fetches) << "phase " << i;
    EXPECT_EQ(a.evictions, b.evictions) << "phase " << i;
  }
}

TEST(TreeCacheBasic, RejectsBadConfig) {
  const Tree t = trees::path(3);
  EXPECT_THROW(TreeCache(t, {.alpha = 0, .capacity = 3}), CheckFailure);
  EXPECT_THROW(TreeCache(t, {.alpha = 2, .capacity = 0}), CheckFailure);
}

TEST(TreeCacheBasic, RejectsOutOfRangeRequest) {
  const Tree t = trees::path(3);
  TreeCache tc(t, {.alpha = 2, .capacity = 3});
  EXPECT_THROW(tc.step(positive(7)), CheckFailure);
}

TEST(TreeCacheBasic, AlphaOneFetchesImmediately) {
  const Tree t = trees::path(4);
  TreeCache tc(t, {.alpha = 1, .capacity = 4});
  const auto out = tc.step(positive(3));
  EXPECT_EQ(out.change, ChangeKind::kFetch);
  EXPECT_EQ(sorted(out.changed), (std::vector<NodeId>{3}));
}

}  // namespace
}  // namespace treecache
