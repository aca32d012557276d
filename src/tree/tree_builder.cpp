#include "tree/tree_builder.hpp"

#include <vector>

namespace treecache::trees {

namespace {
/// Appends a heap-shaped full binary tree of `size` nodes (size must be odd
/// so that every internal node has exactly two children) under `root_parent`.
/// Nodes are appended to `parent` contiguously; returns the subtree root id.
NodeId append_heap_binary(std::vector<NodeId>& parent, NodeId root_parent,
                          std::size_t size) {
  TC_CHECK(size % 2 == 1, "full binary tree needs an odd node count");
  const NodeId base = static_cast<NodeId>(parent.size());
  parent.push_back(root_parent);
  for (std::size_t i = 1; i < size; ++i) {
    parent.push_back(base + static_cast<NodeId>((i - 1) / 2));
  }
  return base;
}
}  // namespace

Tree path(std::size_t n) {
  TC_CHECK(n >= 1, "path needs at least one node");
  std::vector<NodeId> parent(n);
  parent[0] = kNoNode;
  for (std::size_t i = 1; i < n; ++i) parent[i] = static_cast<NodeId>(i - 1);
  return Tree(std::move(parent));
}

Tree star(std::size_t leaf_count) {
  TC_CHECK(leaf_count < kNoNode, "star has too many leaves for a NodeId");
  std::vector<NodeId> parent(leaf_count + 1, 0);
  parent[0] = kNoNode;
  return Tree(std::move(parent));
}

Tree complete_kary(std::size_t levels, std::size_t arity) {
  TC_CHECK(levels >= 1, "need at least one level");
  TC_CHECK(arity >= 1, "arity must be positive");
  std::vector<NodeId> parent{kNoNode};
  std::size_t level_begin = 0;
  std::size_t level_end = 1;
  for (std::size_t level = 1; level < levels; ++level) {
    const std::size_t next_begin = parent.size();
    for (std::size_t p = level_begin; p < level_end; ++p) {
      for (std::size_t c = 0; c < arity; ++c) {
        parent.push_back(static_cast<NodeId>(p));
      }
    }
    level_begin = next_begin;
    level_end = parent.size();
  }
  return Tree(std::move(parent));
}

Tree caterpillar(std::size_t spine, std::size_t legs) {
  TC_CHECK(spine >= 1, "caterpillar needs a spine");
  std::vector<NodeId> parent;
  parent.reserve(spine * (legs + 1));
  std::vector<NodeId> spine_ids(spine);
  for (std::size_t i = 0; i < spine; ++i) {
    spine_ids[i] = static_cast<NodeId>(parent.size());
    parent.push_back(i == 0 ? kNoNode : spine_ids[i - 1]);
    for (std::size_t l = 0; l < legs; ++l) parent.push_back(spine_ids[i]);
  }
  return Tree(std::move(parent));
}

Tree spider(std::size_t legs, std::size_t leg_length) {
  std::vector<NodeId> parent{kNoNode};
  for (std::size_t leg = 0; leg < legs; ++leg) {
    NodeId prev = 0;
    for (std::size_t i = 0; i < leg_length; ++i) {
      const NodeId id = static_cast<NodeId>(parent.size());
      parent.push_back(prev);
      prev = id;
    }
  }
  return Tree(std::move(parent));
}

Tree random_recursive(std::size_t n, Rng& rng) {
  TC_CHECK(n >= 1, "tree needs at least one node");
  std::vector<NodeId> parent(n);
  parent[0] = kNoNode;
  for (std::size_t i = 1; i < n; ++i) {
    parent[i] = static_cast<NodeId>(rng.below(i));
  }
  return Tree(std::move(parent));
}

Tree random_bounded_degree(std::size_t n, std::size_t max_children, Rng& rng) {
  TC_CHECK(n >= 1, "tree needs at least one node");
  TC_CHECK(max_children >= 1, "max_children must be positive");
  std::vector<NodeId> parent(n);
  parent[0] = kNoNode;
  std::vector<std::size_t> child_count(n, 0);
  std::vector<NodeId> open{0};  // nodes that can still take a child
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t slot = rng.below(open.size());
    const NodeId p = open[slot];
    parent[i] = p;
    if (++child_count[p] == max_children) {
      open[slot] = open.back();
      open.pop_back();
    }
    open.push_back(static_cast<NodeId>(i));
  }
  return Tree(std::move(parent));
}

Tree random_bounded_height(std::size_t n, std::size_t max_height, Rng& rng) {
  TC_CHECK(n >= 1, "tree needs at least one node");
  TC_CHECK(max_height >= 1, "height bound must be positive");
  std::vector<NodeId> parent(n);
  parent[0] = kNoNode;
  std::vector<std::uint32_t> depth(n, 0);
  std::vector<NodeId> eligible;  // nodes with depth < max_height - 1
  if (max_height >= 2) eligible.push_back(0);
  for (std::size_t i = 1; i < n; ++i) {
    TC_CHECK(!eligible.empty(), "height bound unsatisfiable");
    const NodeId p = rng.pick(eligible);
    parent[i] = p;
    depth[i] = depth[p] + 1;
    if (depth[i] + 1 < max_height) eligible.push_back(static_cast<NodeId>(i));
  }
  return Tree(std::move(parent));
}

Tree two_subtree_gadget(std::size_t leaf_count) {
  TC_CHECK(leaf_count >= 1, "gadget needs at least one leaf per subtree");
  const std::size_t subtree_size = 2 * leaf_count - 1;
  std::vector<NodeId> parent{kNoNode};
  append_heap_binary(parent, 0, subtree_size);  // T1 root: node 1
  append_heap_binary(parent, 0, subtree_size);  // T2 root: node 2*leaf_count
  return Tree(std::move(parent));
}

}  // namespace treecache::trees
