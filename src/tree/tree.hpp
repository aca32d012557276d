// Immutable rooted tree — the universe of the tree-caching problem.
//
// The tree is eight flat u32 arrays, 32 bytes per node: the parent array
// and its CSR children adjacency (offsets and list), depths, the preorder
// sequence and each node's position in it, and the rank-space topology
// (parent rank and subtree size at each preorder rank). Every other fact
// is derived from these on demand rather than stored twice: a subtree size
// is the rank size at the node's position, T(v) is the rank interval
// [tin(v), tin(v) + size(v)), and postorder is preorder reversed. That
// keeps every query the algorithm uses O(1). Trees are immutable after
// construction; algorithms keep their own per-node state in parallel
// arrays indexed by NodeId or by preorder rank.
#pragma once

#include <cstdint>
#include <limits>
#include <ranges>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace treecache {

/// Dense node identifier; nodes of a tree with n nodes are 0..n-1.
using NodeId = std::uint32_t;

/// Sentinel for "no node" (the root's parent).
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// A rooted tree over nodes 0..n-1 given by a parent array.
///
/// Terminology follows the paper: T(v) is the subtree rooted at v (v plus all
/// descendants); height() counts *levels* (a single node has height 1), which
/// matches the paper's use of h(T) as the number of root-distance layers.
class Tree {
 public:
  /// Builds a tree from `parent`, where parent[root] == kNoNode and every
  /// other entry is the node's parent. Throws CheckFailure unless the input
  /// describes exactly one tree (single root, no cycles, ids in range).
  explicit Tree(std::vector<NodeId> parent);

  [[nodiscard]] std::size_t size() const { return parent_.size(); }
  [[nodiscard]] NodeId root() const { return root_; }

  [[nodiscard]] NodeId parent(NodeId v) const {
    TC_DCHECK(v < size(), "node out of range");
    return parent_[v];
  }

  /// Children of v in construction order.
  [[nodiscard]] std::span<const NodeId> children(NodeId v) const {
    TC_DCHECK(v < size(), "node out of range");
    return {child_list_.data() + child_offset_[v],
            child_offset_[v + 1] - child_offset_[v]};
  }

  [[nodiscard]] std::size_t num_children(NodeId v) const {
    TC_DCHECK(v < size(), "node out of range");
    return child_offset_[v + 1] - child_offset_[v];
  }

  [[nodiscard]] bool is_leaf(NodeId v) const { return num_children(v) == 0; }

  /// Number of edges from the root (root has depth 0).
  [[nodiscard]] std::uint32_t depth(NodeId v) const {
    TC_DCHECK(v < size(), "node out of range");
    return depth_[v];
  }

  /// Number of levels: 1 + max depth. h(T) in the paper.
  [[nodiscard]] std::uint32_t height() const { return height_; }

  /// Maximum number of children over all nodes. deg(T) in the paper.
  [[nodiscard]] std::uint32_t max_degree() const { return max_degree_; }

  /// |T(v)|: v plus all its descendants.
  [[nodiscard]] std::uint32_t subtree_size(NodeId v) const {
    TC_DCHECK(v < size(), "node out of range");
    return rank_size_[tin_[v]];
  }

  /// True iff a == d or a is a proper ancestor of d: d's rank lies in the
  /// rank interval of T(a). A d before a wraps the unsigned difference
  /// past every subtree size.
  [[nodiscard]] bool is_ancestor_or_self(NodeId a, NodeId d) const {
    TC_DCHECK(a < size() && d < size(), "node out of range");
    return tin_[d] - tin_[a] < rank_size_[tin_[a]];
  }

  /// Nodes in preorder (parents before children).
  [[nodiscard]] std::span<const NodeId> preorder() const { return preorder_; }

  /// Position of v in preorder(); T(v) occupies the contiguous interval
  /// [preorder_index(v), preorder_index(v) + subtree_size(v)).
  [[nodiscard]] std::uint32_t preorder_index(NodeId v) const {
    TC_DCHECK(v < size(), "node out of range");
    return tin_[v];
  }

  // --- Rank space ------------------------------------------------------
  // Per-node state indexed by preorder rank makes every subtree a
  // contiguous slice (core/node_state.hpp builds on this). preorder_index
  // maps a NodeId to its rank and from_preorder() maps back; the rank-space
  // topology accessors let ancestor walks and child scans stay entirely in
  // rank coordinates: the first child of rank r is r + 1 and the next
  // sibling of rank c is c + preorder_subtree_size(c), so child iteration
  // needs no adjacency array at all.

  /// Preorder rank → NodeId (the same sequence as preorder()).
  [[nodiscard]] std::span<const NodeId> from_preorder() const {
    return preorder_;
  }

  /// Rank of the parent of the node at rank r (kNoNode for the root).
  [[nodiscard]] std::uint32_t preorder_parent(std::uint32_t r) const {
    TC_DCHECK(r < size(), "rank out of range");
    return rank_parent_[r];
  }

  /// |T(v)| of the node v at rank r; T(v) is the rank slice
  /// [r, r + preorder_subtree_size(r)).
  [[nodiscard]] std::uint32_t preorder_subtree_size(std::uint32_t r) const {
    TC_DCHECK(r < size(), "rank out of range");
    return rank_size_[r];
  }

  /// The whole subtree-size stripe, rank-indexed. The slice scans of
  /// TreeCache and Subforest capture this once (`.data()`) instead of
  /// calling preorder_subtree_size per rank.
  [[nodiscard]] std::span<const std::uint32_t> preorder_sizes() const {
    return rank_size_;
  }

  /// True iff NodeId already equals preorder rank, i.e. preorder() is the
  /// identity. ShardPlan's relabeled shard trees guarantee this.
  [[nodiscard]] bool is_preorder_labeled() const { return preorder_labeled_; }

  /// Nodes in postorder (children before parents): preorder() reversed.
  /// Every node comes after all of its descendants, which is all that
  /// bottom-up aggregation needs; siblings come in reverse child order.
  [[nodiscard]] std::ranges::reverse_view<std::span<const NodeId>>
  postorder() const {
    return std::ranges::reverse_view(preorder());
  }

  /// All leaves of the tree.
  [[nodiscard]] std::vector<NodeId> leaves() const;

  /// The node sequence v, parent(v), ..., root.
  [[nodiscard]] std::vector<NodeId> path_to_root(NodeId v) const;

  /// The parent array this tree was built from (parent[root] == kNoNode).
  [[nodiscard]] const std::vector<NodeId>& parent_array() const {
    return parent_;
  }

 private:
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> child_offset_;  // size n+1, CSR offsets
  std::vector<NodeId> child_list_;           // size n-1
  std::vector<std::uint32_t> depth_;
  std::vector<std::uint32_t> tin_;  // NodeId → preorder rank
  std::vector<NodeId> preorder_;    // preorder rank → NodeId
  // Rank-space topology: parent rank and subtree size of the node at each
  // preorder rank.
  std::vector<std::uint32_t> rank_parent_;
  std::vector<std::uint32_t> rank_size_;
  NodeId root_ = kNoNode;
  std::uint32_t height_ = 0;
  std::uint32_t max_degree_ = 0;
  bool preorder_labeled_ = false;
};

}  // namespace treecache
