// The RIB: the full routing table the control plane maintains, from which
// the FIB (rule tree) is rebuilt. Modeled on classic rib_route_add /
// rib_route_delete / rebuild_fib_from_rib designs, over one flat
// open-addressing hash table keyed by the whole prefix (bits and length).
// Generic over the key width — RibTable (IPv4) and RibTable6 (IPv6) are the
// two instantiations, and only the key hash differs between them.
//
// Layout: one slot per prefix ever announced, linear probing, doubling at
// 3/4 load. A mixing hash spreads the keys, so runs of consecutive /24s (the
// bulk of a real table) do not fill runs of neighbouring slots. A withdrawn
// route keeps its slot, flagged not live (tombstone-style, like production
// RIBs): no slot is ever freed, so a probe run ends at the first empty
// slot, and rebuild_fib_from_rib compacts.
//
// Costs: route_add, route_delete and exact are one probe run, O(1) expected
// at this load. lookup (LPM) probes, longest first, only the lengths that
// hold a live route: at most kWidth + 1 runs. Worst case, a probe run is
// O(entries) when keys collide, where a binary trie's descent was O(W).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "fib/ipv6.hpp"
#include "fib/rule_tree.hpp"

namespace treecache::rib {

/// Abstract next-hop identifier carried by a route. A deployed RIB stores
/// a peer address plus path attributes; the cache model only needs route
/// identity, so a small integer stands in.
using NextHop = std::uint32_t;

template <typename PrefixT>
class BasicRibTable {
 public:
  using Bits = typename PrefixT::Bits;

  BasicRibTable() : slots_(kMinSlots) {}

  /// Inserts or replaces the route for `prefix` (host bits zero, as
  /// PrefixT::make and the feed decoders leave them). Returns true when
  /// the route is new, false when an existing route was replaced.
  bool route_add(const PrefixT& prefix, NextHop next_hop);

  /// Removes the route stored at exactly `prefix`. Returns false when no
  /// such route exists. Its slot is not reclaimed (tombstone-style, like
  /// production RIBs); rebuild_fib_from_rib compacts.
  bool route_delete(const PrefixT& prefix);

  /// Longest-prefix match over live routes.
  [[nodiscard]] std::optional<NextHop> lookup(const Bits& addr) const;

  /// The route stored at exactly `prefix`, if any.
  [[nodiscard]] std::optional<NextHop> exact(const PrefixT& prefix) const;

  /// Number of live routes.
  [[nodiscard]] std::size_t size() const { return routes_; }

  /// Slots holding a prefix, withdrawn ones included — the denominator of
  /// the memory audit.
  [[nodiscard]] std::size_t entry_count() const { return entries_; }

  /// Heap bytes held by the table: every slot allocated, empty ones
  /// included (what the process actually pays). Reported by the 1M-route
  /// stress rows.
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

  /// All live routes, sorted shortest-first then numerically — the
  /// deterministic input order for FIB rebuilds.
  [[nodiscard]] std::vector<PrefixT> prefixes() const;

  /// Every prefix holding a slot (entry_count() of them: each prefix ever
  /// announced, withdrawn ones included), in slot order — unsorted.
  [[nodiscard]] std::vector<PrefixT> entries() const;

 private:
  enum class State : std::uint8_t { kEmpty, kWithdrawn, kLive };

  // 16-byte aligned, so a slot (16 bytes for IPv4, 32 for IPv6) never
  // straddles two cache lines.
  struct alignas(16) Slot {
    Bits bits{};
    NextHop next_hop = 0;
    std::uint8_t length = 0;
    State state = State::kEmpty;
  };

  static constexpr std::size_t kMinSlots = 16;  // a power of two

  /// Index of the slot holding `prefix`, or of the empty slot that ends
  /// its probe run.
  [[nodiscard]] std::size_t probe(const PrefixT& prefix) const;

  /// Doubles the slot array and re-places every entry.
  void grow();

  std::vector<Slot> slots_;  // size is a power of two
  std::size_t entries_ = 0;
  std::size_t routes_ = 0;
  std::array<std::size_t, PrefixT::kWidth + 1> live_by_length_{};
};

using RibTable = BasicRibTable<fib::Prefix>;
using RibTable6 = BasicRibTable<fib::Prefix6>;

/// FIB rebuild: materializes the RIB's live routes into the rule
/// dependency tree the cache runs on (fib::build_rule_tree over
/// prefixes(), artificial default rule at node 0) — the same shape
/// rule_tree_from_params produces for synthetic tables.
template <typename PrefixT>
[[nodiscard]] fib::BasicRuleTree<PrefixT> rebuild_fib_from_rib(
    const BasicRibTable<PrefixT>& table);

}  // namespace treecache::rib
