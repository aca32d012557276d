#include "tree/tree.hpp"

#include <algorithm>

namespace treecache {

Tree::Tree(std::vector<NodeId> parent) : parent_(std::move(parent)) {
  const std::size_t n = parent_.size();
  TC_CHECK(n > 0, "tree must have at least one node");
  TC_CHECK(n < kNoNode, "tree too large for NodeId");

  // Locate the unique root and validate parent ids.
  root_ = kNoNode;
  for (NodeId v = 0; v < n; ++v) {
    if (parent_[v] == kNoNode) {
      TC_CHECK(root_ == kNoNode, "more than one root");
      root_ = v;
    } else {
      TC_CHECK(parent_[v] < n, "parent id out of range");
      TC_CHECK(parent_[v] != v, "node is its own parent");
    }
  }
  TC_CHECK(root_ != kNoNode, "no root (every node has a parent)");

  // CSR children adjacency via counting sort. n < kNoNode, so every offset
  // fits a u32.
  child_offset_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (v != root_) ++child_offset_[parent_[v] + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) child_offset_[i] += child_offset_[i - 1];
  child_list_.resize(n - 1);
  {
    std::vector<std::uint32_t> cursor(child_offset_.begin(),
                                      child_offset_.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      if (v != root_) child_list_[cursor[parent_[v]]++] = v;
    }
  }

  max_degree_ = 0;
  for (NodeId v = 0; v < n; ++v) {
    max_degree_ =
        std::max(max_degree_, static_cast<std::uint32_t>(num_children(v)));
  }

  // Iterative preorder DFS: fills depth, tin, preorder, and detects cycles
  // (a cycle leaves nodes unvisited).
  depth_.assign(n, 0);
  tin_.assign(n, 0);
  preorder_.clear();
  preorder_.reserve(n);
  std::vector<NodeId> stack;
  stack.push_back(root_);
  std::uint32_t timer = 0;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    tin_[v] = timer++;
    preorder_.push_back(v);
    const auto kids = children(v);
    // Push in reverse so children are visited in construction order.
    for (std::size_t i = kids.size(); i > 0; --i) {
      const NodeId c = kids[i - 1];
      depth_[c] = depth_[v] + 1;
      stack.push_back(c);
    }
  }
  TC_CHECK(preorder_.size() == n, "parent array contains a cycle");

  height_ = 0;
  for (NodeId v = 0; v < n; ++v) height_ = std::max(height_, depth_[v] + 1);

  // Rank-space topology and the identity-permutation flag. A parent's rank
  // is below its children's, so one reverse pass over the ranks adds every
  // subtree into its parent's after the subtree itself is complete.
  rank_parent_.assign(n, kNoNode);
  rank_size_.assign(n, 1);
  preorder_labeled_ = true;
  for (std::uint32_t r = 0; r < n; ++r) {
    const NodeId v = preorder_[r];
    if (v != r) preorder_labeled_ = false;
    if (v != root_) rank_parent_[r] = tin_[parent_[v]];
  }
  for (std::uint32_t r = static_cast<std::uint32_t>(n) - 1; r > 0; --r) {
    rank_size_[rank_parent_[r]] += rank_size_[r];
  }
}

std::vector<NodeId> Tree::leaves() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < size(); ++v) {
    if (is_leaf(v)) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> Tree::path_to_root(NodeId v) const {
  TC_CHECK(v < size(), "node out of range");
  std::vector<NodeId> path;
  for (NodeId u = v; u != kNoNode; u = parent_[u]) path.push_back(u);
  return path;
}

}  // namespace treecache
