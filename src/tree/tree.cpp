#include "tree/tree.hpp"

#include <algorithm>

namespace treecache {

Tree::Tree(std::vector<NodeId> parent) {
  const std::size_t n = parent.size();
  TC_CHECK(n > 0, "tree must have at least one node");
  TC_CHECK(n < kNoNode, "tree too large for NodeId");

  // Locate the unique root and validate parent ids.
  for (NodeId v = 0; v < n; ++v) {
    if (parent[v] == kNoNode) {
      TC_CHECK(root_ == kNoNode, "more than one root");
      root_ = v;
    } else {
      TC_CHECK(parent[v] < n, "parent id out of range");
      TC_CHECK(parent[v] != v, "node is its own parent");
    }
  }
  TC_CHECK(root_ != kNoNode, "no root (every node has a parent)");

  // First-child / next-sibling links, each child list in id order:
  // prepend every node to its parent's list, highest id first.
  std::vector<NodeId> first_child(n, kNoNode);
  std::vector<NodeId> next_sibling(n, kNoNode);
  for (NodeId v = static_cast<NodeId>(n); v-- > 0;) {
    if (v == root_) continue;
    next_sibling[v] = first_child[parent[v]];
    first_child[parent[v]] = v;
  }

  // Preorder walk over the links, with no stack: descend to the first
  // child, else climb to the nearest ancestor-or-self that has a next
  // sibling. Only the root's tree is reachable, so a cycle leaves nodes
  // unvisited.
  tin_.assign(n, kNoNode);
  preorder_.resize(n);
  std::uint32_t rank = 0;
  for (NodeId v = root_;;) {
    tin_[v] = rank;
    preorder_[rank++] = v;
    if (first_child[v] != kNoNode) {
      v = first_child[v];
      continue;
    }
    while (v != root_ && next_sibling[v] == kNoNode) v = parent[v];
    if (v == root_) break;
    v = next_sibling[v];
  }
  TC_CHECK(rank == n, "parent array contains a cycle");

  // The rank arrays take over the walk's buffers, so construction peaks
  // at 20 bytes per node. A parent's rank is below its children's, so
  // depths fill in rank order, and one reverse pass adds every subtree
  // into its parent's once the subtree itself is complete.
  rank_parent_ = std::move(next_sibling);
  rank_parent_[0] = kNoNode;
  for (std::uint32_t r = 1; r < n; ++r) {
    rank_parent_[r] = tin_[parent[preorder_[r]]];
  }
  rank_depth_ = std::move(parent);
  rank_depth_[0] = 0;
  for (std::uint32_t r = 1; r < n; ++r) {
    rank_depth_[r] = rank_depth_[rank_parent_[r]] + 1;
  }
  rank_size_ = std::move(first_child);
  std::fill(rank_size_.begin(), rank_size_.end(), 1);
  for (std::uint32_t r = static_cast<std::uint32_t>(n) - 1; r > 0; --r) {
    rank_size_[rank_parent_[r]] += rank_size_[r];
  }

  // Ids that already are the ranks need no rank ↔ NodeId pair.
  bool labeled = true;
  for (std::uint32_t r = 0; r < n && labeled; ++r) labeled = preorder_[r] == r;
  if (labeled) {
    tin_ = std::vector<std::uint32_t>();
    preorder_ = std::vector<NodeId>();
  }
  derive_shape();
}

Tree Tree::top_level_slice(const Tree& universe, std::uint32_t begin,
                           std::uint32_t end) {
  TC_CHECK(begin < end && end <= universe.size(), "rank slice out of range");
  TC_CHECK(begin == 0 || universe.rank_parent_[begin] == 0,
           "a slice past the root must start at a top-level subtree");
  TC_CHECK(end == universe.size() || universe.rank_parent_[end] == 0,
           "a slice must end at a top-level subtree boundary");
  // Local id l is universe rank l + offset, except that local 0 is the
  // root or, in a slice past it, the root's replica.
  const std::uint32_t offset = begin - (begin > 0 ? 1 : 0);
  const auto slice = [&](const std::vector<std::uint32_t>& ranks) {
    return std::vector<std::uint32_t>(ranks.begin() + offset,
                                      ranks.begin() + end);
  };
  Tree t;
  t.rank_parent_ = slice(universe.rank_parent_);
  t.rank_size_ = slice(universe.rank_size_);
  t.rank_depth_ = slice(universe.rank_depth_);
  t.root_ = 0;
  t.rank_parent_[0] = kNoNode;
  t.rank_size_[0] = end - offset;
  t.rank_depth_[0] = 0;
  for (std::uint32_t& p : t.rank_parent_) {
    if (p != 0 && p != kNoNode) p -= offset;
  }
  t.derive_shape();
  return t;
}

void Tree::derive_shape() {
  height_ = 1 + *std::max_element(rank_depth_.begin(), rank_depth_.end());
  // One pass in rank order: the parent of rank r is the node last opened
  // at depth(r) − 1, and the node last opened at depth(r) closes at r, so
  // its child count is final there (or at the end).
  std::vector<std::uint32_t> open_children(height_, 0);
  max_degree_ = 0;
  for (const std::uint32_t d : rank_depth_) {
    if (d > 0) ++open_children[d - 1];
    max_degree_ = std::max(max_degree_, open_children[d]);
    open_children[d] = 0;
  }
  for (const std::uint32_t count : open_children) {
    max_degree_ = std::max(max_degree_, count);
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
  for (NodeId u = v; u != kNoNode; u = parent(u)) path.push_back(u);
  return path;
}

std::vector<NodeId> Tree::parent_array() const {
  std::vector<NodeId> out(size());
  for (NodeId v = 0; v < size(); ++v) out[v] = parent(v);
  return out;
}

}  // namespace treecache
