// The RIB: the full routing table the control plane maintains, kept as
// prefix state only — which prefixes the feed named and which of them are
// live. The cache model needs no more: the replay rule tree is built over
// every prefix the feed named (entries(), withdrawn ones included), and no
// program looks a route up, so no next hop is stored. Modeled on classic
// rib_route_add / rib_route_delete designs, over one flat open-addressing
// hash table keyed by the whole prefix (bits and length). Generic over the
// key width — RibTable (IPv4) and RibTable6 (IPv6) are the two
// instantiations, and only the key hash differs between them.
//
// Layout: one slot per prefix ever announced, linear probing, doubling at
// 3/4 load. A mixing hash spreads the keys, so runs of consecutive /24s (the
// bulk of a real table) do not fill runs of neighbouring slots. A withdrawn
// route keeps its slot, flagged not live (tombstone-style, like production
// RIBs): no slot is ever freed, so a probe run ends at the first empty
// slot.
//
// Costs: route_add and route_delete are one probe run, O(1) expected at
// this load. Worst case, a probe run is O(entries) when keys collide, where
// a binary trie's descent was O(W).
#pragma once

#include <cstdint>
#include <vector>

#include "fib/ipv6.hpp"

namespace treecache::rib {

template <typename PrefixT>
class BasicRibTable {
 public:
  using Bits = typename PrefixT::Bits;

  BasicRibTable() : slots_(kMinSlots) {}

  /// Inserts or replaces the route for `prefix` (host bits zero, as
  /// PrefixT::make and the feed decoders leave them). Returns true when
  /// the route is new, false when an existing route was replaced.
  bool route_add(const PrefixT& prefix);

  /// Removes the route stored at exactly `prefix`. Returns false when no
  /// such route exists. Its slot is not reclaimed (tombstone-style, like
  /// production RIBs).
  bool route_delete(const PrefixT& prefix);

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

  /// Every prefix holding a slot (entry_count() of them: each prefix ever
  /// announced, withdrawn ones included), in slot order — unsorted.
  [[nodiscard]] std::vector<PrefixT> entries() const;

 private:
  enum class State : std::uint8_t { kEmpty, kWithdrawn, kLive };

  // 16-byte aligned, so a slot (16 bytes for IPv4, 32 for IPv6) never
  // straddles two cache lines. The alignment, not the fields, sets the
  // IPv4 size: memory_bytes() reads the same as when each slot also held
  // a next hop.
  struct alignas(16) Slot {
    Bits bits{};
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
};

using RibTable = BasicRibTable<fib::Prefix>;
using RibTable6 = BasicRibTable<fib::Prefix6>;

}  // namespace treecache::rib
