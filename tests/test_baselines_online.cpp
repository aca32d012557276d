// Online baselines (LRU-closure, LocalTC, NeverCache): subforest safety,
// capacity discipline and characteristic behaviours.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/local_tc.hpp"
#include "baselines/lru_closure.hpp"
#include "baselines/never_cache.hpp"
#include "core/tree_cache.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace treecache {
namespace {

TEST(LruClosure, FetchesClosureOnMiss) {
  const Tree t = trees::path(4);
  LruClosure lru(t, {.alpha = 2, .capacity = 4});
  const auto out = lru.step(positive(1));
  EXPECT_TRUE(out.paid);
  EXPECT_EQ(out.change, ChangeKind::kFetch);
  // Fetching node 1 pulls its whole missing subtree {1, 2, 3}.
  EXPECT_EQ(lru.cache().size(), 3u);
  EXPECT_TRUE(lru.cache().contains(3));
  EXPECT_TRUE(lru.cache().is_valid());
  EXPECT_EQ(lru.cost().reorg, 6u);  // 3 nodes * alpha
}

TEST(LruClosure, BypassesWhenClosureTooLarge) {
  const Tree t = trees::path(4);
  LruClosure lru(t, {.alpha = 2, .capacity = 2});
  const auto out = lru.step(positive(0));  // closure = 4 nodes > capacity
  EXPECT_TRUE(out.paid);
  EXPECT_EQ(out.change, ChangeKind::kNone);
  EXPECT_TRUE(lru.cache().empty());
}

TEST(LruClosure, EvictsLeastRecentlyUsedRoot) {
  const Tree t = trees::star(3);
  LruClosure lru(t, {.alpha = 1, .capacity = 2});
  lru.step(positive(1));  // cache {1}
  lru.step(positive(2));  // cache {1,2}
  lru.step(positive(1));  // refresh leaf 1
  lru.step(positive(3));  // must evict leaf 2 (least recent root)
  EXPECT_TRUE(lru.cache().contains(1));
  EXPECT_FALSE(lru.cache().contains(2));
  EXPECT_TRUE(lru.cache().contains(3));
}

TEST(LruClosure, NegativeInvalidationEvictsCapWhenEnabled) {
  const Tree t = trees::path(3);
  LruClosure lru(t,
                 {.alpha = 1, .capacity = 3, .evict_on_negative = true});
  lru.step(positive(1));  // cache {1, 2}
  ASSERT_EQ(lru.cache().size(), 2u);
  const auto out = lru.step(negative(1));
  EXPECT_TRUE(out.paid);
  EXPECT_EQ(out.change, ChangeKind::kEvict);
  EXPECT_FALSE(lru.cache().contains(1));
  EXPECT_TRUE(lru.cache().contains(2));  // descendant may stay
  EXPECT_TRUE(lru.cache().is_valid());
}

TEST(LruClosure, NegativeWithoutInvalidationJustPays) {
  const Tree t = trees::path(3);
  LruClosure lru(t, {.alpha = 1, .capacity = 3});
  lru.step(positive(2));
  const auto out = lru.step(negative(2));
  EXPECT_TRUE(out.paid);
  EXPECT_EQ(out.change, ChangeKind::kNone);
  EXPECT_TRUE(lru.cache().contains(2));
}

TEST(LruClosure, AlphaPastInt64OverTreeSizeIsRefused) {
  // A fetch charges |X|·α in u64: at α = 2^63 on a 2-node path, fetching
  // both nodes would charge 0.
  const Tree t = trees::path(2);
  const std::uint64_t max_alpha = INT64_MAX / t.size();
  for (const char* name : {"lru", "lruinv"}) {
    SCOPED_TRACE(name);
    sim::Params p;
    p.set("capacity", "2");
    p.set("alpha", std::to_string(std::uint64_t{1} << 63));
    EXPECT_THROW((void)sim::make_algorithm(name, t, p), CheckFailure);
    p.set("alpha", std::to_string(max_alpha));
    const auto lru = sim::make_algorithm(name, t, p);
    EXPECT_EQ(lru->step(positive(0)).change, ChangeKind::kFetch);
    EXPECT_EQ(lru->cost().reorg, 2 * max_alpha);
  }
}

TEST(LocalTc, NeedsOwnCounterToFetch) {
  // Unlike TC, LocalTC ignores relatives' counters: two requests at node 1
  // and two at node 2 do NOT trigger any fetch with alpha = 2 on a path
  // where P(1) = {1, 2} (node 1 alone must pay 4).
  const Tree t = trees::path(3);
  LocalTc local(t, {.alpha = 2, .capacity = 3});
  EXPECT_EQ(local.step(positive(2)).change, ChangeKind::kNone);
  EXPECT_EQ(local.step(positive(1)).change, ChangeKind::kNone);
  EXPECT_EQ(local.step(positive(1)).change, ChangeKind::kNone);
  // cnt(2) = 1 < 2: still nothing, but TC would have fetched by now.
  EXPECT_EQ(local.step(positive(2)).change, ChangeKind::kFetch);  // {2}
  EXPECT_EQ(local.cache().size(), 1u);
}

TEST(LocalTc, EvictsPathCapWhenCounterPays) {
  const Tree t = trees::path(3);
  LocalTc local(t, {.alpha = 1, .capacity = 3});
  local.step(positive(2));  // fetch {2} (alpha = 1)
  local.step(positive(1));  // fetch {1}
  ASSERT_EQ(local.cache().size(), 2u);
  // Negative at 2: cap {1, 2} has size 2, needs cnt(2) >= 2.
  EXPECT_EQ(local.step(negative(2)).change, ChangeKind::kNone);
  const auto out = local.step(negative(2));
  EXPECT_EQ(out.change, ChangeKind::kEvict);
  EXPECT_TRUE(local.cache().empty());
}

TEST(LocalTc, RestartsWhenFetchDoesNotFit) {
  const Tree t = trees::path(3);
  LocalTc local(t, {.alpha = 1, .capacity = 1});
  local.step(positive(2));  // fetch {2}
  const auto out = local.step(positive(1));  // P(1) = {1}, 1+1 > 1
  EXPECT_EQ(out.change, ChangeKind::kPhaseRestart);
  // The outcome names the fetch it abandons, as TC's restarts do.
  EXPECT_EQ(std::vector<NodeId>(out.aborted_fetch.begin(),
                                out.aborted_fetch.end()),
            (std::vector<NodeId>{1}));
  EXPECT_EQ(std::vector<NodeId>(out.changed.begin(), out.changed.end()),
            (std::vector<NodeId>{2}));
  EXPECT_TRUE(local.cache().empty());
}

TEST(NeverCache, PaysEveryPositive) {
  const Tree t = trees::path(3);
  NeverCache none(t);
  for (int i = 0; i < 5; ++i) none.step(positive(2));
  for (int i = 0; i < 5; ++i) none.step(negative(2));
  EXPECT_EQ(none.cost().service, 5u);
  EXPECT_EQ(none.cost().reorg, 0u);
  EXPECT_TRUE(none.cache().empty());
}

class BaselineSafety : public ::testing::TestWithParam<int> {};

TEST_P(BaselineSafety, CacheStaysValidSubforestUnderRandomTraffic) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 101 + 7);
  const Tree t = trees::random_recursive(60, rng);
  const Trace trace = workload::uniform_trace(t, 1500, 0.3, rng);

  LruClosure lru(t, {.alpha = 2, .capacity = 12});
  LruClosure lru_inv(t,
                     {.alpha = 2, .capacity = 12, .evict_on_negative = true});
  LocalTc local(t, {.alpha = 2, .capacity = 12});

  for (OnlineAlgorithm* alg :
       std::initializer_list<OnlineAlgorithm*>{&lru, &lru_inv, &local}) {
    const auto result =
        sim::run_trace(*alg, trace, /*validate_every_step=*/true);
    EXPECT_LE(result.max_cache_size, 12u) << alg->name();
    EXPECT_EQ(result.cost.total(), alg->cost().total());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineSafety, ::testing::Range(1, 9));

TEST(BaselineComparison, TcWinsOnAdversarialThrashing) {
  // Fetch-on-miss LRU thrashes on a cyclic scan with a small cache and
  // large alpha; TC's rent-or-buy counters keep the reorganization cost
  // proportional to the service cost.
  const Tree t = trees::star(6);
  const std::uint64_t alpha = 16;
  Trace trace;
  for (int rounds = 0; rounds < 400; ++rounds) {
    trace.push_back(positive(static_cast<NodeId>(1 + rounds % 6)));
  }
  TreeCache tc(t, {.alpha = alpha, .capacity = 3});
  LruClosure lru(t, {.alpha = alpha, .capacity = 3});
  const Cost tc_cost = sim::run_trace(tc, trace).cost;
  const Cost lru_cost = sim::run_trace(lru, trace).cost;
  // LRU faults (and pays 2*alpha churn) on every single request here.
  EXPECT_LT(tc_cost.total() * 4, lru_cost.total());
}

}  // namespace
}  // namespace treecache
