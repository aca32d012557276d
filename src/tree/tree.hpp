// Immutable rooted tree — the universe of the tree-caching problem.
//
// The tree lives in preorder-rank space: three flat u32 arrays indexed by
// rank hold each node's parent rank, subtree size and depth, 12 bytes per
// node. A tree whose ids are not already its preorder ranks adds the
// rank ↔ NodeId pair (the preorder sequence and each node's position in
// it), 20 bytes per node in all; ShardPlan's shard trees and any tree
// built in preorder need no such pair. Every other fact is derived on
// demand rather than stored: the parent of a node is the id at its parent
// rank, the children of rank r are r + 1 and then each next sibling
// c + |T(c)|, T(v) is the rank interval [tin(v), tin(v) + size(v)), and
// postorder is preorder reversed. That keeps every query the algorithm uses
// O(1) and a child scan O(degree). Trees are immutable after construction;
// algorithms keep their own per-node state in parallel arrays indexed by
// NodeId or by preorder rank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
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

/// Forward iterator over the children of one node, in rank space: the
/// first child of rank r is r + 1 and the next sibling of rank c is
/// c + |T(c)|. Dereferences to the child's NodeId. Tree::children makes
/// these.
class ChildIterator {
 public:
  using value_type = NodeId;
  using difference_type = std::ptrdiff_t;
  // It yields NodeIds by value: a C++20 forward iterator, which the
  // pre-ranges algorithms may read only as an input iterator.
  using iterator_concept = std::forward_iterator_tag;
  using iterator_category = std::input_iterator_tag;

  ChildIterator() = default;
  NodeId operator*() const { return ids_ == nullptr ? rank_ : ids_[rank_]; }
  ChildIterator& operator++() {
    rank_ += sizes_[rank_];
    return *this;
  }
  ChildIterator operator++(int) {
    ChildIterator old = *this;
    ++*this;
    return old;
  }
  friend bool operator==(const ChildIterator& a, const ChildIterator& b) {
    return a.rank_ == b.rank_;
  }

 private:
  friend class Tree;
  ChildIterator(const std::uint32_t* sizes, const NodeId* ids,
                std::uint32_t rank)
      : sizes_(sizes), ids_(ids), rank_(rank) {}

  const std::uint32_t* sizes_ = nullptr;  // subtree size by rank
  const NodeId* ids_ = nullptr;  // NodeId by rank; null when ids are ranks
  std::uint32_t rank_ = 0;
};

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
  /// Children are ordered by id, so preorder visits them that way.
  explicit Tree(std::vector<NodeId> parent);

  /// The preorder-labelled tree of the rank slice [begin, end) of
  /// `universe`, which must be a run of whole top-level subtrees (children
  /// of the root), or the root and such a run when begin is 0. A slice
  /// that starts past the root gets a replica of it as local node 0, the
  /// parent of the slice's subtree roots. Every other node keeps its
  /// subtree size and depth, and local id l is the universe rank
  /// l + begin − (begin > 0). ShardPlan builds its shard trees this way,
  /// with no parent array to validate and no walk.
  [[nodiscard]] static Tree top_level_slice(const Tree& universe,
                                            std::uint32_t begin,
                                            std::uint32_t end);

  [[nodiscard]] std::size_t size() const { return rank_size_.size(); }
  [[nodiscard]] NodeId root() const { return root_; }

  [[nodiscard]] NodeId parent(NodeId v) const {
    const std::uint32_t p = rank_parent_[preorder_index(v)];
    return p == kNoNode ? kNoNode : from_preorder(p);
  }

  /// Children of v in id order (the order preorder visits them in).
  [[nodiscard]] std::ranges::subrange<ChildIterator> children(
      NodeId v) const {
    const std::uint32_t r = preorder_index(v);
    const NodeId* ids = preorder_.empty() ? nullptr : preorder_.data();
    return {ChildIterator(rank_size_.data(), ids, r + 1),
            ChildIterator(rank_size_.data(), ids, r + rank_size_[r])};
  }

  /// O(degree): counts the sibling hops of children(v).
  [[nodiscard]] std::size_t num_children(NodeId v) const {
    return static_cast<std::size_t>(std::ranges::distance(children(v)));
  }

  [[nodiscard]] bool is_leaf(NodeId v) const { return subtree_size(v) == 1; }

  /// Number of edges from the root (root has depth 0).
  [[nodiscard]] std::uint32_t depth(NodeId v) const {
    return rank_depth_[preorder_index(v)];
  }

  /// Number of levels: 1 + max depth. h(T) in the paper.
  [[nodiscard]] std::uint32_t height() const { return height_; }

  /// Maximum number of children over all nodes. deg(T) in the paper.
  [[nodiscard]] std::uint32_t max_degree() const { return max_degree_; }

  /// |T(v)|: v plus all its descendants.
  [[nodiscard]] std::uint32_t subtree_size(NodeId v) const {
    return rank_size_[preorder_index(v)];
  }

  /// True iff a == d or a is a proper ancestor of d: d's rank lies in the
  /// rank interval of T(a). A d before a wraps the unsigned difference
  /// past every subtree size.
  [[nodiscard]] bool is_ancestor_or_self(NodeId a, NodeId d) const {
    const std::uint32_t ra = preorder_index(a);
    return preorder_index(d) - ra < rank_size_[ra];
  }

  /// Nodes in preorder (parents before children): a random-access view of
  /// from_preorder over the ranks 0..n-1.
  [[nodiscard]] auto preorder() const {
    return std::views::iota(std::uint32_t{0},
                            static_cast<std::uint32_t>(size())) |
           std::views::transform(
               [this](std::uint32_t r) { return from_preorder(r); });
  }

  /// Nodes in postorder (children before parents): preorder() reversed.
  /// Every node comes after all of its descendants, which is all that
  /// bottom-up aggregation needs; siblings come in reverse child order.
  [[nodiscard]] auto postorder() const {
    return preorder() | std::views::reverse;
  }

  // --- Rank space ------------------------------------------------------
  // Per-node state indexed by preorder rank makes every subtree a
  // contiguous slice (core/node_state.hpp builds on this). preorder_index
  // maps a NodeId to its rank and from_preorder maps back; the rank-space
  // topology accessors let ancestor walks and child scans stay entirely in
  // rank coordinates: the first child of rank r is r + 1 and the next
  // sibling of rank c is c + preorder_subtree_size(c).

  /// Position of v in preorder(); T(v) occupies the contiguous interval
  /// [preorder_index(v), preorder_index(v) + subtree_size(v)).
  [[nodiscard]] std::uint32_t preorder_index(NodeId v) const {
    TC_DCHECK(v < size(), "node out of range");
    return tin_.empty() ? v : tin_[v];
  }

  /// The node at preorder rank r.
  [[nodiscard]] NodeId from_preorder(std::uint32_t r) const {
    TC_DCHECK(r < size(), "rank out of range");
    return preorder_.empty() ? r : preorder_[r];
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
  /// identity and the tree stores no rank ↔ NodeId pair. ShardPlan's shard
  /// trees guarantee this.
  [[nodiscard]] bool is_preorder_labeled() const { return tin_.empty(); }

  /// All leaves of the tree, in id order.
  [[nodiscard]] std::vector<NodeId> leaves() const;

  /// The node sequence v, parent(v), ..., root.
  [[nodiscard]] std::vector<NodeId> path_to_root(NodeId v) const;

  /// The parent array of this tree (parent[root] == kNoNode), rebuilt
  /// from the rank arrays.
  [[nodiscard]] std::vector<NodeId> parent_array() const;

  /// Two trees are equal iff their parent arrays are.
  friend bool operator==(const Tree&, const Tree&) = default;

 private:
  Tree() = default;

  /// height_ and max_degree_ from the rank arrays.
  void derive_shape();

  // Rank-indexed topology: parent rank, subtree size and depth of the
  // node at each preorder rank.
  std::vector<std::uint32_t> rank_parent_;
  std::vector<std::uint32_t> rank_size_;
  std::vector<std::uint32_t> rank_depth_;
  // The rank ↔ NodeId pair; both empty when the ids are the ranks.
  std::vector<std::uint32_t> tin_;  // NodeId → preorder rank
  std::vector<NodeId> preorder_;    // preorder rank → NodeId
  NodeId root_ = kNoNode;
  std::uint32_t height_ = 0;
  std::uint32_t max_degree_ = 0;
};

}  // namespace treecache
