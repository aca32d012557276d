// Utility substrate: check failures, epoch arrays, RNG determinism and
// distribution sanity, sweep point seeds, stopwatch monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "core/epoch_array.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace treecache {
namespace {

TEST(CheckFailure, MessageKeepsTheCallersTextApart) {
  try {
    TC_CHECK(1 + 1 == 3, "arithmetic is " + std::string("off"));
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("check failed: (1 + 1 == 3) at ", 0), 0u) << what;
    EXPECT_NE(what.find("— arithmetic is off"), std::string::npos) << what;
    EXPECT_EQ(e.message(), "arithmetic is off");
    EXPECT_EQ(error_message(e), "arithmetic is off");
  }
  // No message of its own: the whole what() is what a user reads.
  const CheckFailure whole("feed line 3: bad prefix");
  EXPECT_TRUE(whole.message().empty());
  EXPECT_EQ(error_message(whole), "feed line 3: bad prefix");
  EXPECT_EQ(error_message(std::runtime_error("disk full")), "disk full");
}

TEST(EpochArray, DefaultsAndWrites) {
  EpochArray<std::int64_t> arr(4, -7);
  EXPECT_EQ(arr.get(0), -7);
  arr.set(0, 3);
  arr.add(1, 10);  // default -7 + 10
  EXPECT_EQ(arr.get(0), 3);
  EXPECT_EQ(arr.get(1), 3);
  EXPECT_EQ(arr.get(2), -7);
}

TEST(EpochArray, ResetAllIsConstantTimeObservable) {
  EpochArray<std::uint64_t> arr(8, 0);
  for (std::size_t i = 0; i < 8; ++i) arr.set(i, i + 1);
  arr.reset_all();
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(arr.get(i), 0u);
  // Writes after the reset stick.
  arr.set(3, 42);
  EXPECT_EQ(arr.get(3), 42u);
  EXPECT_EQ(arr.get(4), 0u);
}

TEST(EpochArray, SurvivesManyEpochs) {
  EpochArray<std::uint32_t> arr(2, 9);
  for (int epoch = 0; epoch < 100000; ++epoch) {
    arr.set(0, 1);
    arr.reset_all();
  }
  EXPECT_EQ(arr.get(0), 9u);
}

TEST(EpochArray, EpochWraparoundClearsStaleSlots) {
  // After 2^32 − 1 resets the epoch counter wraps to 0 and reset_all() must
  // really clear the arrays: a slot stamped in epoch 1 of the PREVIOUS lap
  // would otherwise be resurrected once the counter reaches 1 again.
  EpochArray<std::int64_t> arr(3, -5);
  arr.set(0, 77);  // stamped with epoch 1
  arr.debug_set_epoch(std::numeric_limits<std::uint32_t>::max());
  arr.set(1, 88);  // stamped with the final pre-wrap epoch
  arr.reset_all();  // wraps: must fall back to an O(n) clear
  EXPECT_EQ(arr.debug_epoch(), 1u);
  EXPECT_EQ(arr.get(0), -5);  // NOT 77, despite stamp == epoch == 1 pre-clear
  EXPECT_EQ(arr.get(1), -5);
  EXPECT_EQ(arr.get(2), -5);
  // The wrapped instance behaves like a fresh one.
  arr.add(0, 6);
  EXPECT_EQ(arr.get(0), 1);
  arr.reset_all();
  EXPECT_EQ(arr.get(0), -5);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::array<int, 10> buckets{};
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (const int b : buckets) EXPECT_NEAR(b, 10000, 500);
  EXPECT_THROW(rng.below(0), CheckFailure);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen, (std::set<std::int64_t>{-2, -1, 0, 1, 2}));
  EXPECT_THROW(rng.uniform_int(3, 1), CheckFailure);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(17);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += child1() == child2() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(19);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7};
  auto shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, PointSeedsAreTheSeedersDraws) {
  // One seed per sweep point, drawn up front: point i's seed depends only
  // on i and the sweep's seed, so a sweep replays bit for bit and a longer
  // sweep extends a shorter one.
  Rng seeder(99);
  const std::vector<std::uint64_t> seeds = point_seeds(99, 32);
  ASSERT_EQ(seeds.size(), 32u);
  for (const std::uint64_t seed : seeds) EXPECT_EQ(seed, seeder());
  EXPECT_EQ(point_seeds(99, 32), seeds);
  const std::vector<std::uint64_t> prefix = point_seeds(99, 8);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), seeds.begin()));
  EXPECT_TRUE(point_seeds(99, 0).empty());
}

TEST(Stopwatch, TimeMovesForward) {
  Stopwatch watch;
  const double t0 = watch.seconds();
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(i);
  ASSERT_GT(sink, 0.0);  // keep the loop alive
  const double t1 = watch.seconds();
  EXPECT_GE(t1, t0);
  watch.restart();
  EXPECT_LE(watch.seconds(), t1 + 1.0);
}

}  // namespace
}  // namespace treecache
