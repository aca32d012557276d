// Rule dependency tree extraction (§2 of the paper).
//
// The forwarding rules of a FIB form an implicit tree under prefix
// inclusion: the parent of a rule is its longest proper ancestor prefix.
// An artificial default rule /0 (node 0) roots the tree; it forwards
// unmatched packets to the controller (Figure 1). Tree caching runs on
// exactly this tree: caching a rule requires caching all of its
// more-specific descendants, which is what makes LPM over the cached
// subset return correct egress ports.
//
// The tree is also the FIB's only prefix index. The rules containing an
// address are exactly the nodes of one root path, so longest-prefix match
// is a descent: a node's children are disjoint prefixes, kept sorted by
// bits in a child index, and one binary search per level finds the child
// that contains the address. Generic over the key width: RuleTree is the
// IPv4 instantiation, RuleTree6 the IPv6 one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "fib/ipv6.hpp"
#include "tree/tree.hpp"

namespace treecache::fib {

template <typename PrefixT>
struct BasicRuleTree {
  using Bits = typename PrefixT::Bits;

  Tree tree;                    // node 0 = artificial default rule
  std::vector<PrefixT> prefix;  // per tree node
  /// The child index: v's children are child_list[child_offset[v] ..
  /// child_offset[v + 1]), sorted by prefix bits. It holds the same edges
  /// as `tree`, whose children follow node ids instead.
  std::vector<std::uint32_t> child_offset;
  std::vector<NodeId> child_list;

  /// The child of `v` whose prefix contains `addr`, or kNoNode.
  [[nodiscard]] NodeId child_containing(NodeId v, const Bits& addr) const {
    return child_containing(child_offset[v], child_offset[v + 1], addr);
  }

  /// The rule of child_list[first, last), one node's range of the child
  /// index, whose prefix contains `addr`, or kNoNode.
  [[nodiscard]] NodeId child_containing(std::uint32_t first,
                                        std::uint32_t last,
                                        const Bits& addr) const {
    const NodeId* begin = child_list.data() + first;
    const NodeId* end = child_list.data() + last;
    // Disjoint prefixes sorted by bits: only the last child starting at
    // or below `addr` can contain it.
    const NodeId* next = std::upper_bound(
        begin, end, addr,
        [this](const Bits& a, NodeId c) { return a < prefix[c].bits; });
    if (next == begin) return kNoNode;
    const NodeId c = *(next - 1);
    return prefix[c].contains(addr) ? c : kNoNode;
  }

  /// Longest-prefix match of `addr`, descending from `from`, which must
  /// contain it: a rule's match is the rule or one of its descendants.
  /// From the root, the full-table match (node 0 if nothing more specific
  /// matches).
  [[nodiscard]] NodeId lpm(const Bits& addr, NodeId from = 0) const {
    TC_DCHECK(prefix[from].contains(addr),
              "the descent must start at a rule containing the address");
    for (;;) {
      const NodeId c = child_containing(from, addr);
      if (c == kNoNode) return from;
      from = c;
    }
  }

  /// The node whose prefix is exactly `p` (the root for /0), if any.
  [[nodiscard]] std::optional<NodeId> exact(const PrefixT& p) const {
    NodeId v = 0;
    while (prefix[v].length < p.length) {
      const NodeId c = child_containing(v, p.bits);
      if (c == kNoNode || prefix[c].length > p.length) return std::nullopt;
      v = c;
    }
    return v;
  }
};

using RuleTree = BasicRuleTree<Prefix>;
using RuleTree6 = BasicRuleTree<Prefix6>;

/// Builds the rule tree from a set of prefixes. Duplicates are dropped; a
/// /0 entry, if present, merges into the artificial root. Node ids are
/// assigned in (length, bits) order, so parents precede children.
template <typename PrefixT>
[[nodiscard]] BasicRuleTree<PrefixT> build_rule_tree(
    std::vector<PrefixT> prefixes);

}  // namespace treecache::fib
