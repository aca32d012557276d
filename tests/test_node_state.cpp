// Unit tests for TC's preorder-indexed hot state: one record per rank whose
// index half is the positive index while the rank is not cached and the
// negative index while it is, and the epoch machinery that gives O(1)
// phase resets and its clear-on-wrap branch.
#include <gtest/gtest.h>

#include <limits>

#include "core/node_state.hpp"

namespace treecache {
namespace {

static_assert(sizeof(NodeState::Record) == 24,
              "one 24-byte record per rank: i64, u64, u32, u32 stamp");

void expect_zero(const NodeState& state, std::uint32_t r) {
  EXPECT_EQ(state.counter(r), 0u) << "rank " << r;
  EXPECT_EQ(state.pcnt(r), 0) << "rank " << r;
  EXPECT_EQ(state.cached_below(r), 0u) << "rank " << r;
}

TEST(NodeState, CountersStartAtZeroAndBump) {
  NodeState state(3);
  EXPECT_EQ(state.counter(0), 0u);
  EXPECT_EQ(state.bump_counter(0), 1u);
  EXPECT_EQ(state.bump_counter(0), 2u);
  EXPECT_EQ(state.counter(0), 2u);
  EXPECT_EQ(state.counter(1), 0u);
  state.evict(0, 0);  // a cache transition resets the counter
  EXPECT_EQ(state.counter(0), 0u);
}

TEST(NodeState, NewPhaseResetsCountersAndPositiveIndexTogether) {
  NodeState state(3);
  state.bump_counter(1);
  state.pos(1).value = 5;
  state.pos(1).size = 2;
  state.fetch(2, -3, 4);
  state.new_phase();
  // The counter and the positive index observe the phase reset...
  expect_zero(state, 1);
  // ...and so does the negative index, which shares the record: the whole
  // record is handed out as zeros on its next touch.
  expect_zero(state, 2);
  const NodeState::Record& record = state.pos(2);
  EXPECT_EQ(record.value, 0);
  EXPECT_EQ(record.counter, 0u);
  EXPECT_EQ(record.size, 0u);
}

TEST(NodeState, PosFreshensStaleSlotsOnTouch) {
  NodeState state(2);
  state.pos(0).value = 9;
  state.new_phase();
  // Mutable access to a stale slot hands out zeros, not the old values.
  NodeState::Record& entry = state.pos(0);
  EXPECT_EQ(entry.value, 0);
  EXPECT_EQ(entry.size, 0u);
  entry.value = 1;
  EXPECT_EQ(state.pcnt(0), 1);
}

TEST(NodeState, FetchOverwritesLivePositiveEntry) {
  NodeState state(2);
  state.bump_counter(0);
  state.pos(0).value = 7;  // cnt(P_t(0))
  state.pos(0).size = 1;   // cached_below
  state.fetch(0, -5, 3);
  // The positive index and the counter give way to (I, S) and zero.
  EXPECT_EQ(state.neg(0).value, -5);
  EXPECT_EQ(state.neg(0).size, 3u);
  EXPECT_EQ(state.counter(0), 0u);
  EXPECT_EQ(state.bump_counter(0), 1u);
  EXPECT_EQ(state.neg(0).value, -5) << "a counter bump leaves (I, S) alone";
}

TEST(NodeState, EvictOverwritesLiveNegativeEntry) {
  NodeState state(2);
  state.fetch(1, 4, 6);
  state.bump_counter(1);
  state.neg(1).value += 1;
  state.evict(1, 2);
  // (I, S) and the counter give way to (cnt(P_t) = 0, cached_below).
  EXPECT_EQ(state.pcnt(1), 0);
  EXPECT_EQ(state.cached_below(1), 2u);
  EXPECT_EQ(state.counter(1), 0u);
}

TEST(NodeState, EpochWraparoundClearsStaleSlots) {
  // Same hazard as EpochArray: a slot stamped 1 on the previous lap of the
  // epoch counter must not be resurrected when the counter wraps back to 1.
  NodeState state(2);
  state.bump_counter(0);    // record stamped with epoch 1
  state.pos(0).value = 42;  // same record, same stamp
  state.debug_set_epoch(std::numeric_limits<std::uint32_t>::max());
  state.new_phase();  // wraps: must fall back to an O(n) clear
  EXPECT_EQ(state.debug_epoch(), 1u);
  expect_zero(state, 0);
  EXPECT_EQ(state.debug_raw(0).value, 0) << "the wrap really clears";
  EXPECT_EQ(state.debug_raw(0).stamp, 0u);
  EXPECT_EQ(state.bump_counter(0), 1u);
}

TEST(NodeState, ResetRestoresFreshState) {
  NodeState state(2);
  state.bump_counter(0);
  state.pos(1).value = 7;
  state.debug_set_epoch(1234);
  state.fetch(0, 3, 2);
  state.reset();
  // A reset is the phase restart's epoch bump, not a return to epoch 1.
  EXPECT_EQ(state.debug_epoch(), 1235u);
  expect_zero(state, 0);
  expect_zero(state, 1);
}

TEST(NodeState, ResetRunsNoFill) {
  NodeState state(3);
  state.bump_counter(0);
  state.pos(1).value = 7;
  state.fetch(2, -1, 5);
  state.reset();
  for (std::uint32_t r = 0; r < 3; ++r) expect_zero(state, r);
  // The stored records are untouched: only the epoch moved.
  EXPECT_EQ(state.debug_raw(0).counter, 1u);
  EXPECT_EQ(state.debug_raw(1).value, 7);
  EXPECT_EQ(state.debug_raw(2).value, -1);
  EXPECT_EQ(state.debug_raw(2).size, 5u);
}

#ifndef NDEBUG
TEST(NodeState, NegativeIndexOfStaleRecordIsChecked) {
  NodeState state(2);
  state.fetch(0, 1, 1);
  EXPECT_NO_THROW((void)state.neg(0));
  EXPECT_THROW((void)state.neg(1), CheckFailure) << "never fetched";
  state.new_phase();
  EXPECT_THROW((void)state.neg(0), CheckFailure) << "fetched last phase";
}
#endif

}  // namespace
}  // namespace treecache
