// Unit tests for the preorder-indexed SoA hot-state block, including the
// epoch machinery that gives O(1) phase resets and its clear-on-wrap branch.
#include <gtest/gtest.h>

#include <limits>

#include "core/node_state.hpp"

namespace treecache {
namespace {

TEST(NodeState, CountersStartAtZeroAndBump) {
  NodeState state(3);
  EXPECT_EQ(state.counter(0), 0u);
  EXPECT_EQ(state.bump_counter(0), 1u);
  EXPECT_EQ(state.bump_counter(0), 2u);
  EXPECT_EQ(state.counter(0), 2u);
  EXPECT_EQ(state.counter(1), 0u);
  state.reset_counter(0);
  EXPECT_EQ(state.counter(0), 0u);
}

TEST(NodeState, NewPhaseResetsCountersAndPositiveIndexTogether) {
  NodeState state(3);
  state.bump_counter(1);
  state.pos(1).pcnt = 5;
  state.pos(1).cached_below = 2;
  state.neg(1) = NodeState::NegEntry{.value = -3, .size = 4};
  state.new_phase();
  // Counters and the positive index observe the phase reset...
  EXPECT_EQ(state.counter(1), 0u);
  EXPECT_EQ(state.pcnt(1), 0);
  EXPECT_EQ(state.cached_below(1), 0u);
  // ...while the negative index (re-initialized on fetch, no epoch) is
  // untouched by new_phase().
  EXPECT_EQ(state.neg(1).value, -3);
  EXPECT_EQ(state.neg(1).size, 4u);
}

TEST(NodeState, PosFreshensStaleSlotsOnTouch) {
  NodeState state(2);
  state.pos(0).pcnt = 9;
  state.new_phase();
  // Mutable access to a stale slot hands out zeros, not the old values.
  NodeState::PosEntry& entry = state.pos(0);
  EXPECT_EQ(entry.pcnt, 0);
  EXPECT_EQ(entry.cached_below, 0u);
  entry.pcnt = 1;
  EXPECT_EQ(state.pcnt(0), 1);
}

TEST(NodeState, EpochWraparoundClearsStaleSlots) {
  // Same hazard as EpochArray: a slot stamped 1 on the previous lap of the
  // epoch counter must not be resurrected when the counter wraps back to 1.
  NodeState state(2);
  state.bump_counter(0);   // counter slot stamped with epoch 1
  state.pos(0).pcnt = 42;  // pos slot stamped with epoch 1
  state.debug_set_epoch(std::numeric_limits<std::uint32_t>::max());
  state.new_phase();  // wraps: must fall back to an O(n) clear
  EXPECT_EQ(state.debug_epoch(), 1u);
  EXPECT_EQ(state.counter(0), 0u);
  EXPECT_EQ(state.pcnt(0), 0);
  EXPECT_EQ(state.cached_below(0), 0u);
  EXPECT_EQ(state.bump_counter(0), 1u);
}

TEST(NodeState, ResetRestoresFreshState) {
  NodeState state(2);
  state.bump_counter(0);
  state.pos(1).pcnt = 7;
  state.neg(0) = NodeState::NegEntry{.value = 3, .size = 2};
  state.debug_set_epoch(1234);
  state.reset();
  EXPECT_EQ(state.debug_epoch(), 1u);
  EXPECT_EQ(state.counter(0), 0u);
  EXPECT_EQ(state.pcnt(1), 0);
  EXPECT_EQ(state.neg(0).value, 0);
  EXPECT_EQ(state.neg(0).size, 0u);
}

}  // namespace
}  // namespace treecache
