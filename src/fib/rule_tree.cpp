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
  const auto n = static_cast<std::uint32_t>(prefixes.size() + 1);
  // Position b of that order holds the root at 0 and prefixes[b - 1] after.
  const auto prefix_at = [&](std::uint32_t b) -> const PrefixT& {
    return prefixes[b - 1];
  };

  // One stack pass in that order: after popping the prefixes that do not
  // contain prefix b, the stack top is its longest proper ancestor.
  std::vector<std::uint32_t> up(n);  // the parent's position
  up[0] = kNoNode;
  std::vector<std::uint32_t> open;  // positions, outermost first
  for (std::uint32_t b = 1; b < n; ++b) {
    while (!open.empty() && !prefix_at(open.back()).contains(prefix_at(b))) {
      open.pop_back();
    }
    up[b] = open.empty() ? 0 : open.back();
    open.push_back(b);
  }

  // The positions in (length, bits) order, parents first: a stable
  // counting sort by length.
  std::array<std::uint32_t, PrefixT::kWidth + 1> next{};
  for (const PrefixT& p : prefixes) ++next[p.length];
  std::uint32_t first = 0;
  for (std::uint32_t& slot : next) {
    const std::uint32_t count = slot;
    slot = first;
    first += count;
  }
  std::vector<std::uint32_t> by_length(n - 1);
  for (std::uint32_t b = 1; b < n; ++b) {
    by_length[next[prefix_at(b).length]++] = b;
  }

  // Node ids are the Tree's preorder ranks with each node's children in
  // (length, bits) order. Parents come first in the position order, so
  // one reverse pass gives subtree sizes. Then, in (length, bits) order,
  // each node takes its parent's rank cursor and moves it past its own
  // subtree, and its own cursor starts just after it: `cursor` holds a
  // node's subtree size until the node is placed, and its cursor after.
  std::vector<std::uint32_t> cursor(n, 1);
  for (std::uint32_t b = n - 1; b > 0; --b) cursor[up[b]] += cursor[b];
  cursor[0] = 1;
  std::vector<NodeId> rank(n);  // the root keeps rank 0
  for (const std::uint32_t b : by_length) {
    const std::uint32_t r = cursor[up[b]];
    cursor[up[b]] = r + cursor[b];
    rank[b] = r;
    cursor[b] = r + 1;
  }

  // Scatter into rank order: the prefixes, the parents (in `cursor`'s
  // buffer) and the child index. Child counts to CSR ranges: prefix sums
  // leave each range's end in child_offset[v]; placing the children back
  // to front, in reverse position order, moves it to the range's start
  // and sorts each range by bits.
  std::vector<PrefixT> node_prefix(n);
  std::vector<NodeId> parent = std::move(cursor);
  parent[0] = kNoNode;
  std::vector<std::uint32_t> child_offset(n + 1, 0);
  for (std::uint32_t b = 1; b < n; ++b) {
    node_prefix[rank[b]] = prefix_at(b);
    parent[rank[b]] = rank[up[b]];
    ++child_offset[rank[up[b]]];
  }
  for (std::uint32_t v = 1; v <= n; ++v) {
    child_offset[v] += child_offset[v - 1];
  }
  std::vector<NodeId> child_list = std::move(by_length);
  for (std::uint32_t b = n - 1; b > 0; --b) {
    child_list[--child_offset[rank[up[b]]]] = rank[b];
  }
  // Free the sorted input, the positions' parents and the ranks before
  // the Tree's preorder walk adds its own 16 bytes per node.
  prefixes = std::vector<PrefixT>();
  up = std::vector<std::uint32_t>();
  rank = std::vector<NodeId>();
  Tree tree(std::move(parent));
  return BasicRuleTree<PrefixT>{std::move(tree), std::move(node_prefix),
                                std::move(child_offset),
                                std::move(child_list)};
}

template RuleTree build_rule_tree<Prefix>(std::vector<Prefix>);
template RuleTree6 build_rule_tree<Prefix6>(std::vector<Prefix6>);

}  // namespace treecache::fib
