#include "core/node_state.hpp"

#include <algorithm>

namespace treecache {

NodeState::NodeState(std::size_t n) : cnt_(n), pos_(n), neg_(n) {}

void NodeState::new_phase() {
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: stamps are ambiguous, really clear
    std::fill(cnt_.begin(), cnt_.end(), Counter{});
    std::fill(pos_.begin(), pos_.end(), PosEntry{});
    epoch_ = 1;
  }
}

void NodeState::reset() {
  std::fill(cnt_.begin(), cnt_.end(), Counter{});
  std::fill(pos_.begin(), pos_.end(), PosEntry{});
  std::fill(neg_.begin(), neg_.end(), NegEntry{});
  epoch_ = 1;
}

}  // namespace treecache
