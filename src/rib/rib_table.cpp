#include "rib/rib_table.hpp"

#include <algorithm>

namespace treecache::rib {

namespace {

/// splitmix64's finalizer: every key bit reaches every hash bit.
constexpr std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t prefix_hash(const fib::Prefix& p) {
  return mix((std::uint64_t{p.bits} << 8) | p.length);
}

std::uint64_t prefix_hash(const fib::Prefix6& p) {
  return mix(mix(p.bits.hi ^ p.length) ^ p.bits.lo);
}

}  // namespace

template <typename PrefixT>
std::size_t BasicRibTable<PrefixT>::probe(const PrefixT& prefix) const {
  TC_DCHECK(
      prefix.bits == (prefix.bits & fib::prefix_mask<Bits>(prefix.length)),
      "prefix has host bits set");
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = prefix_hash(prefix) & mask;
  while (slots_[i].state != State::kEmpty &&
         (slots_[i].length != prefix.length || slots_[i].bits != prefix.bits)) {
    i = (i + 1) & mask;
  }
  return i;
}

template <typename PrefixT>
void BasicRibTable<PrefixT>::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  for (const Slot& slot : old) {
    if (slot.state != State::kEmpty) {
      slots_[probe(PrefixT{slot.bits, slot.length})] = slot;
    }
  }
}

template <typename PrefixT>
bool BasicRibTable<PrefixT>::route_add(const PrefixT& prefix,
                                       NextHop next_hop) {
  std::size_t i = probe(prefix);
  if (slots_[i].state == State::kEmpty) {
    if (4 * (entries_ + 1) > 3 * slots_.size()) {
      grow();
      i = probe(prefix);
    }
    slots_[i].bits = prefix.bits;
    slots_[i].length = prefix.length;
    ++entries_;
  }
  Slot& slot = slots_[i];
  slot.next_hop = next_hop;
  if (slot.state == State::kLive) return false;
  slot.state = State::kLive;
  ++routes_;
  ++live_by_length_[prefix.length];
  return true;
}

template <typename PrefixT>
bool BasicRibTable<PrefixT>::route_delete(const PrefixT& prefix) {
  Slot& slot = slots_[probe(prefix)];
  if (slot.state != State::kLive) return false;
  slot.state = State::kWithdrawn;
  slot.next_hop = 0;
  --routes_;
  --live_by_length_[prefix.length];
  return true;
}

template <typename PrefixT>
std::optional<NextHop> BasicRibTable<PrefixT>::lookup(const Bits& addr) const {
  for (unsigned length = PrefixT::kWidth + 1; length-- > 0;) {
    if (live_by_length_[length] == 0) continue;
    const Slot& slot =
        slots_[probe(PrefixT::make(addr, static_cast<std::uint8_t>(length)))];
    if (slot.state == State::kLive) return slot.next_hop;
  }
  return std::nullopt;
}

template <typename PrefixT>
std::optional<NextHop> BasicRibTable<PrefixT>::exact(
    const PrefixT& prefix) const {
  const Slot& slot = slots_[probe(prefix)];
  if (slot.state != State::kLive) return std::nullopt;
  return slot.next_hop;
}

template <typename PrefixT>
std::vector<PrefixT> BasicRibTable<PrefixT>::prefixes() const {
  std::vector<PrefixT> out;
  out.reserve(routes_);
  for (const Slot& slot : slots_) {
    if (slot.state == State::kLive) {
      out.push_back(PrefixT{slot.bits, slot.length});
    }
  }
  std::sort(out.begin(), out.end(), [](const PrefixT& a, const PrefixT& b) {
    return a.length != b.length ? a.length < b.length : a.bits < b.bits;
  });
  return out;
}

template <typename PrefixT>
std::vector<PrefixT> BasicRibTable<PrefixT>::entries() const {
  std::vector<PrefixT> out;
  out.reserve(entries_);
  for (const Slot& slot : slots_) {
    if (slot.state != State::kEmpty) {
      out.push_back(PrefixT{slot.bits, slot.length});
    }
  }
  return out;
}

template <typename PrefixT>
fib::BasicRuleTree<PrefixT> rebuild_fib_from_rib(
    const BasicRibTable<PrefixT>& table) {
  return fib::build_rule_tree(table.prefixes());
}

template class BasicRibTable<fib::Prefix>;
template class BasicRibTable<fib::Prefix6>;
template fib::RuleTree rebuild_fib_from_rib<fib::Prefix>(const RibTable&);
template fib::RuleTree6 rebuild_fib_from_rib<fib::Prefix6>(const RibTable6&);

}  // namespace treecache::rib
