// IPv6: a 128-bit key type plus the AddressFamily specialization that
// lets BasicPrefix / BasicRuleTree / BasicPacketSampler / rib_gen run on
// IPv6 prefixes unchanged. Text form is RFC 4291 hex groups with a
// single "::" compression; formatting follows RFC 5952 (lowercase,
// longest zero run of >= 2 groups compressed, leftmost on ties).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "fib/ipv4.hpp"

namespace treecache::fib {

/// 128-bit unsigned key: two 64-bit limbs with exactly the operator set
/// the generic prefix machinery needs (masks, shifts, comparisons).
/// Ordering is numeric — high limb first — via the defaulted comparison.
struct U128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  constexpr U128() = default;
  constexpr explicit U128(std::uint64_t value) : lo(value) {}
  constexpr U128(std::uint64_t hi, std::uint64_t lo) : hi(hi), lo(lo) {}

  friend constexpr U128 operator&(const U128& a, const U128& b) {
    return U128{a.hi & b.hi, a.lo & b.lo};
  }
  friend constexpr U128 operator|(const U128& a, const U128& b) {
    return U128{a.hi | b.hi, a.lo | b.lo};
  }
  friend constexpr U128 operator^(const U128& a, const U128& b) {
    return U128{a.hi ^ b.hi, a.lo ^ b.lo};
  }
  friend constexpr U128 operator~(const U128& a) {
    return U128{~a.hi, ~a.lo};
  }
  friend constexpr U128 operator<<(const U128& a, unsigned n) {
    if (n == 0) return a;
    if (n >= 128) return U128{};
    if (n >= 64) return U128{a.lo << (n - 64), 0};
    return U128{(a.hi << n) | (a.lo >> (64 - n)), a.lo << n};
  }
  friend constexpr U128 operator>>(const U128& a, unsigned n) {
    if (n == 0) return a;
    if (n >= 128) return U128{};
    if (n >= 64) return U128{0, a.hi >> (n - 64)};
    return U128{a.hi >> n, (a.lo >> n) | (a.hi << (64 - n))};
  }

  friend constexpr auto operator<=>(const U128&, const U128&) = default;
};

using Address6 = U128;

template <>
struct AddressFamily<Address6> {
  static constexpr unsigned kWidth = 128;
  static constexpr const char* kName = "IPv6";
  [[nodiscard]] static std::string to_string(const Address6& addr);
  /// Strict RFC 4291 parser: 1-4 hex digits per group, exactly eight
  /// groups unless a single "::" supplies the missing zeros. Errors
  /// carry the 1-based column.
  [[nodiscard]] static Address6 parse(std::string_view text);
  [[nodiscard]] static Address6 random(Rng& rng);
};

using Prefix6 = BasicPrefix<Address6>;

[[nodiscard]] std::string address6_to_string(const Address6& addr);
[[nodiscard]] Address6 parse_address6(const std::string& text);

}  // namespace treecache::fib
