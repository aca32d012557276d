// The 13-level universe of the tc-deep bench rows and perfbench's
// deep-uniform-8x3 workload: eight 12-level complete binary subtrees under
// one root, 32,761 nodes. Each subtree's ids are in heap order (a node's
// children follow it level by level), so the tree is not preorder-labeled.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "tree/tree.hpp"

namespace treecache::testing_util {

inline Tree deep_universe() {
  constexpr std::size_t kSubNodes = (std::size_t{1} << 12) - 1;
  std::vector<NodeId> parents(1 + 8 * kSubNodes, kNoNode);
  for (std::size_t t = 0; t < 8; ++t) {
    for (std::size_t j = 0; j < kSubNodes; ++j) {
      parents[1 + t * kSubNodes + j] = static_cast<NodeId>(
          j == 0 ? 0 : 1 + t * kSubNodes + (j - 1) / 2);
    }
  }
  return Tree(std::move(parents));
}

}  // namespace treecache::testing_util
