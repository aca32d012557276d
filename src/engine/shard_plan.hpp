// Shard planning: a deterministic partition of the universe tree into
// contiguous-preorder subtree shards, the way a router's line cards each
// hold a slice of the FIB.
//
// The partition unit is a top-level subtree T(c) for a child c of the
// global root: adjacent children own adjacent preorder intervals, so every
// shard is one contiguous preorder range of the universe, and routing a
// request reads its node's rank once and counts the shard start ranks at
// or below it. Children are grouped greedily into size-balanced contiguous
// runs; asking for more shards than the root has children yields one shard
// per child.
//
// Each shard gets its own Tree to run an algorithm instance on, a rank
// slice of the universe (Tree::top_level_slice, 12 bytes per node):
//   * shard 0 owns the global root, so its tree is the root plus its run
//     of top-level subtrees — ids relabeled to local preorder;
//   * every other shard's tree is a REPLICA of the global root (local node
//     0 — the line card's copy of the default rule) with the shard's
//     subtree roots as children. The replica never receives requests;
//     routing is by the requested node only, so the request → shard map is
//     a pure function of the plan.
// For FIB rule trees (fib/rule_tree.hpp) this is exactly "shard by
// top-level prefix": node 0 is the artificial default rule and every shard
// boundary lands between top-level prefixes.
#pragma once

#include <cstddef>
#include <vector>

#include "core/request.hpp"
#include "tree/tree.hpp"

namespace treecache::engine {

/// One shard: a contiguous preorder slice of the universe tree.
struct Shard {
  /// Global ids of the top-level subtree roots owned by this shard, in
  /// preorder. Shard 0 additionally owns the global root itself (not
  /// listed here).
  std::vector<NodeId> roots;
  /// The global preorder interval [begin, end) the shard covers. Shard 0's
  /// interval starts at the root (preorder index 0).
  std::uint32_t preorder_begin = 0;
  std::uint32_t preorder_end = 0;

  [[nodiscard]] std::size_t nodes() const {
    return preorder_end - preorder_begin;
  }
};

/// A request routed into its shard: the shard that serves it and the
/// request in that shard tree's ids.
struct RoutedRequest {
  std::size_t shard = 0;
  Request local;
};

class ShardPlan {
 public:
  /// Partitions `tree` into min(max_shards, max(1, #children(root)))
  /// shards. `tree` must outlive the plan. max_shards == 1 is the trivial
  /// plan: one shard whose tree IS the universe (no relabeling).
  ShardPlan(const Tree& tree, std::size_t max_shards);

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] const Shard& shard(std::size_t s) const { return shards_[s]; }
  [[nodiscard]] const Tree& universe() const { return *universe_; }

  /// The tree shard `s`'s algorithm instance runs on. For the trivial
  /// 1-shard plan this is the universe itself (never a relabeled copy).
  [[nodiscard]] const Tree& shard_tree(std::size_t s) const {
    return trees_.empty() ? *universe_ : trees_[s];
  }

  // --- Ids from preorder ranks ------------------------------------------
  // Local ids are assigned in ascending global preorder, so every shard
  // tree is preorder-labeled (Tree::is_preorder_labeled() holds): a shard's
  // local NodeId IS its preorder rank, and the rank-indexed NodeState
  // records of its TreeCache need no per-request permutation at all. The same
  // order makes the id maps arithmetic: a local id is the node's global
  // preorder rank minus the shard's rank_offset, and the shard of a rank is
  // the number of later shards starting at or below it. So the plan keeps
  // no per-node table at all.

  /// {shard_of(request.node), to_local(request)} from one rank lookup: the
  /// demux's routing call.
  [[nodiscard]] RoutedRequest route(Request request) const {
    TC_CHECK(request.node < universe_->size(),
             "request to node outside the universe");
    const Located at = locate(request.node);
    request.node = at.local;
    return {at.shard, request};
  }

  /// Which shard serves requests to global node `v`.
  [[nodiscard]] std::size_t shard_of(NodeId v) const {
    TC_CHECK(v < universe_->size(), "request to node outside the universe");
    return locate(v).shard;
  }

  /// Global node → its id in shard_tree(shard_of(v)).
  [[nodiscard]] NodeId to_local(NodeId v) const {
    TC_DCHECK(v < universe_->size(), "node outside the universe");
    return locate(v).local;
  }

  /// Shard-local node → global node. The replica root (local 0 of shards
  /// s > 0) maps back to the global root, so the round trip
  /// to_local(to_global(s, l)) == l holds for every node that can be
  /// requested and the replica maps to the rule it duplicates.
  [[nodiscard]] NodeId to_global(std::size_t s, NodeId local) const {
    TC_DCHECK(s < num_shards() && local < shard_tree(s).size(),
              "shard-local node out of range");
    if (trees_.empty()) return local;
    if (s > 0 && local == 0) return universe_->root();
    return universe_->from_preorder(local + rank_offset(s));
  }

  /// The request routed into its shard's id space, sign and packet flag
  /// kept.
  [[nodiscard]] Request to_local(Request request) const {
    request.node = to_local(request.node);
    return request;
  }

 private:
  struct Located {
    std::size_t shard;
    NodeId local;
  };

  /// The one routing rule. Global node v's shard is a count of the later
  /// shards' first ranks at or below v's rank, with no branch to
  /// mispredict; its local id is that rank minus the shard's offset.
  [[nodiscard]] Located locate(NodeId v) const {
    if (trees_.empty()) return {0, v};
    const std::uint32_t r = universe_->preorder_index(v);
    std::size_t s = 0;
    for (const std::uint32_t start : starts_) s += start <= r ? 1 : 0;
    return {s, r - rank_offset(s)};
  }

  /// Global preorder rank minus shard-local id, for every node of shard
  /// `s` except a replica root: the shard's first rank, minus one after
  /// shard 0, where the replica root holds local id 0.
  [[nodiscard]] std::uint32_t rank_offset(std::size_t s) const {
    return shards_[s].preorder_begin - static_cast<std::uint32_t>(s != 0);
  }

  const Tree* universe_;
  std::vector<Shard> shards_;
  std::vector<Tree> trees_;  // one per shard; empty when trivial
  // preorder_begin of shards 1, 2, …; empty when trivial.
  std::vector<std::uint32_t> starts_;
};

}  // namespace treecache::engine
