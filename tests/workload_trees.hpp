// The tree each registered workload runs over, for the registry-wide test
// loops: fib* over the synthetic RIB rule tree, fib-real over the tree
// rebuilt from its feed (`params`' rib-feed), the rest over any tree. And
// the label-free index of a rule tree's nodes that pinned digests hash.
#pragma once

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "fib/fib_workloads.hpp"
#include "rib/workloads.hpp"
#include "sim/registry.hpp"
#include "tree/tree.hpp"

namespace treecache::testing_util {

inline const Tree& tree_for_workload(const std::string& name,
                                     const sim::Params& params,
                                     const Tree& rule_tree,
                                     const Tree& generic_tree) {
  // fib-real first: its name also matches the fib* prefix.
  if (rib::is_real_fib_workload_name(name)) {
    return rib::shared_real_fib(params).tree();
  }
  return fib::is_fib_workload_name(name) ? rule_tree : generic_tree;
}

/// Each node's index in the (length, bits) order of its prefix: the root
/// first, then the rules by length and, within a length, by bits. A plain
/// sort computes it, apart from the library's own orderings. Digests over
/// rule-tree node ids hash them through this index, so they pin a stream
/// up to how build_rule_tree labels the nodes.
template <typename PrefixT>
std::vector<NodeId> length_bits_index(const fib::BasicRuleTree<PrefixT>& rt) {
  std::vector<NodeId> by_index(rt.tree.size());
  std::iota(by_index.begin(), by_index.end(), NodeId{0});
  std::sort(by_index.begin(), by_index.end(), [&](NodeId a, NodeId b) {
    return std::tie(rt.prefix[a].length, rt.prefix[a].bits) <
           std::tie(rt.prefix[b].length, rt.prefix[b].bits);
  });
  std::vector<NodeId> index(by_index.size());
  for (NodeId i = 0; i < by_index.size(); ++i) index[by_index[i]] = i;
  return index;
}

}  // namespace treecache::testing_util
