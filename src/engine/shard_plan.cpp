#include "engine/shard_plan.hpp"

#include <algorithm>

namespace treecache::engine {

ShardPlan::ShardPlan(const Tree& tree, std::size_t max_shards)
    : universe_(&tree) {
  const auto kids = tree.children(tree.root());
  const std::vector<NodeId> children(kids.begin(), kids.end());
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

  // Each shard's tree is its rank slice of the universe. Local ids follow
  // global preorder, so every shard tree is preorder-labeled — the
  // guarantee the rank-indexed NodeState records and the arithmetic id maps
  // build on.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    trees_.push_back(
        Tree::top_level_slice(tree, shard.preorder_begin, shard.preorder_end));
    if (s > 0) starts_.push_back(shard.preorder_begin);
  }
}

}  // namespace treecache::engine
