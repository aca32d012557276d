// White-box validation of TC's §6 data structures: the incremental
// aggregates (cnt(P_t(u)), |P_t(u)|, I(u), S(u)) are recomputed from
// scratch after every round of random runs and must agree exactly.
#include <gtest/gtest.h>

#include "core/tree_cache.hpp"
#include "deep_universe.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace treecache {
namespace {

/// Brute-force cnt(P_t(u)) and |P_t(u)| for non-cached u.
void brute_positive(const TreeCache& tc, NodeId u, std::uint64_t& cnt_out,
                    std::uint32_t& size_out) {
  const Tree& tree = tc.tree();
  cnt_out = 0;
  size_out = 0;
  std::vector<NodeId> stack{u};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    cnt_out += tc.counter(v);
    ++size_out;
    for (const NodeId c : tree.children(v)) {
      if (!tc.cache().contains(c)) stack.push_back(c);
    }
  }
}

/// Brute-force (I, S) of the best tree cap rooted at cached x.
std::pair<std::int64_t, std::uint64_t> brute_negative(const TreeCache& tc,
                                                      NodeId x) {
  const Tree& tree = tc.tree();
  std::int64_t i_value = static_cast<std::int64_t>(tc.counter(x)) -
                         static_cast<std::int64_t>(tc.config().alpha);
  std::uint64_t s_value = 1;
  for (const NodeId c : tree.children(x)) {
    const auto [ci, cs] = brute_negative(tc, c);
    if (ci >= 0) {
      i_value += ci;
      s_value += cs;
    }
  }
  return {i_value, s_value};
}

void check_all_aggregates(const TreeCache& tc) {
  const Tree& tree = tc.tree();
  for (NodeId u = 0; u < tree.size(); ++u) {
    if (tc.cache().contains(u)) {
      const auto [i_value, s_value] = brute_negative(tc, u);
      ASSERT_EQ(tc.debug_hI(u), i_value) << "I(" << u << ")";
      ASSERT_EQ(tc.debug_hS(u), s_value) << "S(" << u << ")";
    } else {
      std::uint64_t cnt = 0;
      std::uint32_t size = 0;
      brute_positive(tc, u, cnt, size);
      ASSERT_EQ(static_cast<std::uint64_t>(tc.debug_pcnt(u)), cnt)
          << "cnt(P(" << u << "))";
      ASSERT_EQ(tc.debug_psize(u), size) << "|P(" << u << ")|";
    }
  }
}

class TcWhitebox : public ::testing::TestWithParam<int> {};

TEST_P(TcWhitebox, AggregatesMatchBruteForceEveryRound) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 7919 + 13);
  const Tree tree = (seed % 3 == 0)   ? trees::random_recursive(25, rng)
                    : (seed % 3 == 1) ? trees::random_bounded_degree(25, 2, rng)
                                      : trees::caterpillar(5, 3);
  const std::uint64_t alpha = 1 + rng.below(4);
  const std::size_t capacity = 1 + rng.below(tree.size());
  const Trace trace = workload::uniform_trace(tree, 600, 0.45, rng);

  TreeCache tc(tree, {.alpha = alpha, .capacity = capacity});
  for (const Request& r : trace) {
    tc.step(r);
    check_all_aggregates(tc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcWhitebox, ::testing::Range(1, 13));

#ifndef NDEBUG
TEST(TcWhitebox, DebugAccessorsCheckTheCacheState) {
  // The positive and negative index share each node's record, so reading
  // one in the other's state is refused rather than answered wrongly.
  const Tree tree = trees::path(2);
  TreeCache tc(tree, {.alpha = 1, .capacity = 2});
  ASSERT_EQ(tc.step(positive(1)).change, ChangeKind::kFetch);
  ASSERT_TRUE(tc.cache().contains(1));
  ASSERT_FALSE(tc.cache().contains(0));
  EXPECT_NO_THROW((void)tc.debug_hI(1));
  EXPECT_NO_THROW((void)tc.debug_pcnt(0));
  EXPECT_THROW((void)tc.debug_hI(0), CheckFailure);
  EXPECT_THROW((void)tc.debug_hS(0), CheckFailure);
  EXPECT_THROW((void)tc.debug_pcnt(1), CheckFailure);
  EXPECT_THROW((void)tc.debug_psize(1), CheckFailure);
}
#endif

TEST(TcWhitebox, WorkCounterGrowsAndBoundsHold) {
  // The Theorem 6.1 work counter is monotone and bounded per request by
  // O(h + max(h, deg) * |X|). Verify a crude per-round bound on a run.
  Rng rng(3);
  const Tree tree = trees::random_recursive(200, rng);
  const Trace trace = workload::uniform_trace(tree, 3000, 0.4, rng);
  TreeCache tc(tree, {.alpha = 3, .capacity = 30});
  std::uint64_t previous = 0;
  const std::uint64_t h = tree.height();
  const std::uint64_t deg = tree.max_degree();
  for (const Request& r : trace) {
    const StepOutcome out = tc.step(r);
    const std::uint64_t spent = tc.work() - previous;
    previous = tc.work();
    const std::uint64_t moved = out.changed.size() + out.aborted_fetch.size();
    // Constant 6 covers the implementation's bookkeeping passes.
    EXPECT_LE(spent, 6 * (h + std::max(h, deg) * (moved + 1)))
        << "round work exceeds the Theorem 6.1 shape";
  }
}

/// work(), cost() and the phase count after a seeded uniform stream with
/// 10% negatives.
struct PinnedRun {
  std::uint64_t work = 0;
  Cost cost;
  std::size_t phases = 0;
};

PinnedRun run_uniform(const Tree& tree, TreeCacheConfig config,
                      std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  const Trace trace = workload::uniform_trace(tree, length, 0.1, rng);
  TreeCache tc(tree, config);
  for (const Request& r : trace) tc.step(r);
  return {tc.work(), tc.cost(), tc.phases().size()};
}

TEST(TcWhitebox, WorkCounterIsPinnedOnSeededStreams) {
  // Theorem 6.1's counter counts, per positive request, the levels of the
  // walk up plus the levels a root→v scan visits down to the fetched
  // candidate (all of them when none saturates). The values were recorded
  // from an implementation that ran the walk and the scan as two loops;
  // the one-pass walk must count exactly as it did.
  {
    SCOPED_TRACE("deep universe, alpha 16, capacity 512");
    const PinnedRun run =
        run_uniform(testing_util::deep_universe(),
                    {.alpha = 16, .capacity = 512}, 1'000'000, 29);
    EXPECT_EQ(run.work, 21'597'909u);
    EXPECT_EQ(run.cost.service, 898'987u);
    EXPECT_EQ(run.cost.reorg, 36'752u);
    EXPECT_EQ(run.phases, 3u);
  }
  {
    SCOPED_TRACE("random recursive tree, alpha 4, capacity 24");
    Rng shape(31);
    const PinnedRun run =
        run_uniform(trees::random_recursive(2000, shape),
                    {.alpha = 4, .capacity = 24}, 100'000, 37);
    EXPECT_EQ(run.work, 1'552'307u);
    EXPECT_EQ(run.cost.service, 89'640u);
    EXPECT_EQ(run.cost.reorg, 7'884u);
    EXPECT_EQ(run.phases, 42u);
  }
}

TEST(TcWhitebox, PhaseStatsConsistentWithOutcomes) {
  Rng rng(5);
  const Tree tree = trees::random_recursive(40, rng);
  const Trace trace = workload::uniform_trace(tree, 4000, 0.35, rng);
  TreeCache tc(tree, {.alpha = 2, .capacity = 6});
  std::uint64_t fetched = 0;
  std::uint64_t evicted = 0;
  std::uint64_t restarts = 0;
  std::uint64_t round = 0;
  for (const Request& r : trace) {
    const StepOutcome out = tc.step(r);
    ++round;
    switch (out.change) {
      case ChangeKind::kFetch:
        fetched += out.changed.size();
        break;
      case ChangeKind::kEvict:
        evicted += out.changed.size();
        break;
      case ChangeKind::kPhaseRestart: {
        ++restarts;
        // The restart closes the phase at this round and opens the next
        // one on the round after; k_P counts the evicted cache plus the
        // fetch that did not fit (Section 5).
        const std::vector<PhaseStats>& phases = tc.phases();
        ASSERT_EQ(phases.size(), restarts + 1);
        const PhaseStats& closed = phases[phases.size() - 2];
        EXPECT_EQ(closed.last_round, round);
        EXPECT_EQ(phases.back().first_round, round + 1);
        EXPECT_EQ(closed.k_end, out.changed.size() + out.aborted_fetch.size());
        break;
      }
      case ChangeKind::kNone:
        break;
    }
  }
  EXPECT_GT(restarts, 0u);
  EXPECT_EQ(tc.phases().back().last_round, 0u);  // the open phase
  std::uint64_t phase_fetched = 0;
  std::uint64_t phase_evicted = 0;
  std::uint64_t finished = 0;
  for (const PhaseStats& p : tc.phases()) {
    phase_fetched += p.fetches;
    phase_evicted += p.evictions;
    finished += p.finished ? 1 : 0;
  }
  EXPECT_EQ(phase_fetched, fetched);
  EXPECT_EQ(phase_evicted, evicted);
  EXPECT_EQ(finished, restarts);
  EXPECT_EQ(tc.phases().size(), restarts + 1);
  // Every finished phase overflowed the capacity.
  for (const PhaseStats& p : tc.phases()) {
    if (p.finished) {
      EXPECT_GE(p.k_end, tc.config().capacity + 1);
    }
  }
}

}  // namespace
}  // namespace treecache
