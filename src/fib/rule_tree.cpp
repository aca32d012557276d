#include "fib/rule_tree.hpp"

#include <array>

namespace treecache::fib {

namespace {

/// Byte `i` of a key, counting from the least significant.
unsigned key_byte(Address bits, unsigned i) { return (bits >> (8 * i)) & 0xFF; }

unsigned key_byte(const Address6& bits, unsigned i) {
  const std::uint64_t limb = i < 8 ? bits.lo : bits.hi;
  return static_cast<unsigned>(limb >> (8 * (i % 8))) & 0xFF;
}

/// Sorts `prefixes` into BasicPrefix's (bits, length) order with an LSD
/// radix sort: one stable counting pass per key byte, the length first,
/// then the bits from the least significant byte up. A pass whose byte is
/// the same in every prefix would move nothing and is skipped.
template <typename PrefixT>
void radix_sort(std::vector<PrefixT>& prefixes) {
  constexpr unsigned kPasses = 1 + PrefixT::kWidth / 8;
  const auto digit = [](const PrefixT& p, unsigned pass) {
    return pass == 0 ? unsigned{p.length} : key_byte(p.bits, pass - 1);
  };
  std::vector<std::array<std::size_t, 256>> counts(kPasses);
  for (const PrefixT& p : prefixes) {
    for (unsigned pass = 0; pass < kPasses; ++pass) {
      ++counts[pass][digit(p, pass)];
    }
  }
  std::vector<PrefixT> sorted(prefixes.size());
  for (unsigned pass = 0; pass < kPasses; ++pass) {
    std::array<std::size_t, 256>& next = counts[pass];
    if (std::ranges::find(next, prefixes.size()) != next.end()) continue;
    std::size_t offset = 0;
    for (std::size_t& slot : next) {
      const std::size_t count = slot;
      slot = offset;
      offset += count;
    }
    for (const PrefixT& p : prefixes) sorted[next[digit(p, pass)]++] = p;
    prefixes.swap(sorted);
  }
}

}  // namespace

template <typename PrefixT>
BasicRuleTree<PrefixT> build_rule_tree(std::vector<PrefixT> prefixes) {
  // Sort into BasicPrefix's own (bits, length) order, which lists every
  // prefix after the prefixes that contain it: a preorder of the nesting
  // forest. A radix sort is linear in the prefixes, and a real feed names
  // about a million. Drop duplicates and any explicit default route (it is
  // the artificial root).
  radix_sort(prefixes);
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
