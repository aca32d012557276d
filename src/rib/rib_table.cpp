#include "rib/rib_table.hpp"

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
bool BasicRibTable<PrefixT>::route_add(const PrefixT& prefix) {
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
  if (slot.state == State::kLive) return false;
  slot.state = State::kLive;
  ++routes_;
  return true;
}

template <typename PrefixT>
bool BasicRibTable<PrefixT>::route_delete(const PrefixT& prefix) {
  Slot& slot = slots_[probe(prefix)];
  if (slot.state != State::kLive) return false;
  slot.state = State::kWithdrawn;
  --routes_;
  return true;
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

template class BasicRibTable<fib::Prefix>;
template class BasicRibTable<fib::Prefix6>;

}  // namespace treecache::rib
