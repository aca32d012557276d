#include "engine/shard_plan.hpp"

#include <algorithm>

namespace treecache::engine {

ShardPlan::ShardPlan(const Tree& tree, std::size_t max_shards)
    : universe_(&tree) {
  const std::span<const NodeId> children = tree.children(tree.root());
  const std::size_t target =
      std::min(std::max<std::size_t>(max_shards, 1),
               std::max<std::size_t>(children.size(), 1));

  if (target <= 1) {
    // Trivial plan: one shard whose tree IS the universe. Identity maps,
    // no relabeled tree (shard_tree returns the universe), no tables.
    Shard whole;
    whole.roots.assign(children.begin(), children.end());
    whole.preorder_begin = 0;
    whole.preorder_end = static_cast<std::uint32_t>(tree.size());
    shards_.push_back(std::move(whole));
    return;
  }

  // Group the root's children into `target` contiguous runs, greedily
  // filling each run to its fair share ceil(remaining/runs-left) of the
  // remaining node mass while always leaving one child per later run.
  // Contiguity in child order is contiguity in preorder: sibling subtrees
  // occupy adjacent preorder intervals.
  std::uint64_t remaining = tree.size() - 1;  // all nodes below the root
  std::size_t next_child = 0;
  for (std::size_t g = 0; g < target; ++g) {
    const std::size_t runs_left = target - g;
    const std::uint64_t budget = (remaining + runs_left - 1) / runs_left;
    Shard shard;
    std::uint64_t taken = 0;
    while (next_child < children.size() &&
           (shard.roots.empty() ||
            (taken < budget &&
             children.size() - next_child > runs_left - 1))) {
      const NodeId c = children[next_child++];
      shard.roots.push_back(c);
      taken += tree.subtree_size(c);
    }
    remaining -= taken;
    shard.preorder_begin =
        g == 0 ? 0 : tree.preorder_index(shard.roots.front());
    shard.preorder_end = tree.preorder_index(shard.roots.back()) +
                         tree.subtree_size(shard.roots.back());
    shards_.push_back(std::move(shard));
  }

  // Relabel each shard's slice into its own Tree. Local ids follow global
  // preorder; shards after the first get a replica of the global root as
  // local node 0 (their subtree roots reparent onto it).
  shard_of_.assign(tree.size(), 0);
  const std::span<const NodeId> preorder = tree.preorder();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    const std::uint32_t offset = rank_offset(s);
    std::vector<NodeId> parent(shard.nodes() + (s > 0 ? 1 : 0), kNoNode);
    for (std::uint32_t r = shard.preorder_begin; r < shard.preorder_end;
         ++r) {
      shard_of_[preorder[r]] = static_cast<std::uint32_t>(s);
      // Subtree roots hang off the (replica of the) global root, rank 0;
      // shard 0's first slot is the real root and keeps kNoNode.
      const std::uint32_t p = tree.preorder_parent(r);
      if (p != kNoNode) parent[r - offset] = p == 0 ? NodeId{0} : p - offset;
    }
    trees_.emplace_back(std::move(parent));
    // Local ids follow ascending global preorder and sibling subtrees stay
    // in child order, so the relabeled tree's DFS visits 0, 1, 2, … — the
    // guarantee the rank-indexed NodeState records and the arithmetic
    // id maps build on.
    TC_DCHECK(trees_.back().is_preorder_labeled(),
              "shard tree must be preorder-labeled");
  }
}

}  // namespace treecache::engine
