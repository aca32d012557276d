#include "fib/rule_tree.hpp"

#include <array>

namespace treecache::fib {

template <typename PrefixT>
BasicRuleTree<PrefixT> build_rule_tree(std::vector<PrefixT> prefixes) {
  // BasicPrefix's own (bits, length) order lists every prefix after the
  // prefixes that contain it: a preorder of the nesting forest. Drop
  // duplicates and any explicit default route (it is the artificial root).
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                 prefixes.end());
  std::erase_if(prefixes, [](const PrefixT& p) { return p.length == 0; });
  const std::size_t n = prefixes.size() + 1;

  // Node ids follow (length, bits) order, parents first: a stable counting
  // sort of the (bits, length) order by length.
  std::array<NodeId, PrefixT::kWidth + 1> next_id{};
  for (const PrefixT& p : prefixes) ++next_id[p.length];
  NodeId first_id = 1;  // node 0 is the /0 default rule
  for (NodeId& slot : next_id) {
    const NodeId count = slot;
    slot = first_id;
    first_id += count;
  }
  std::vector<NodeId> id(prefixes.size());
  std::vector<PrefixT> node_prefix(n);
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    id[i] = next_id[prefixes[i].length]++;
    node_prefix[id[i]] = prefixes[i];
  }

  // One stack pass in preorder: after popping the prefixes that do not
  // contain prefix i, the stack top is its longest proper ancestor.
  std::vector<NodeId> parent(n, 0);
  parent[0] = kNoNode;
  std::vector<std::uint32_t> child_offset(n + 1, 0);
  std::vector<std::size_t> open;  // positions in `prefixes`, outermost first
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    while (!open.empty() && !prefixes[open.back()].contains(prefixes[i])) {
      open.pop_back();
    }
    parent[id[i]] = open.empty() ? 0 : id[open.back()];
    ++child_offset[parent[id[i]]];
    open.push_back(i);
  }
  // Child counts to CSR ranges: prefix sums leave each range's end in
  // child_offset[v]; placing the children back to front, in reverse
  // preorder, moves it to the range's start and sorts each range by bits.
  for (std::size_t v = 1; v <= n; ++v) child_offset[v] += child_offset[v - 1];
  std::vector<NodeId> child_list(n - 1);
  for (std::size_t i = prefixes.size(); i-- > 0;) {
    child_list[--child_offset[parent[id[i]]]] = id[i];
  }
  return BasicRuleTree<PrefixT>{Tree(std::move(parent)),
                                std::move(node_prefix),
                                std::move(child_offset),
                                std::move(child_list)};
}

template RuleTree build_rule_tree<Prefix>(std::vector<Prefix>);
template RuleTree6 build_rule_tree<Prefix6>(std::vector<Prefix6>);

}  // namespace treecache::fib
