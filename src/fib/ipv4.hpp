// IPv4/IPv6 addresses and width-parameterized prefixes for the FIB
// application (§2 of the paper) and the rib/ ingest subsystem. The key
// width is a template parameter: `Prefix` (32-bit IPv4 keys, this header)
// and `Prefix6` (128-bit IPv6 keys, fib/ipv6.hpp) share one BasicPrefix
// so the rule tree, packet sampler, RIB generator and feed machinery stay
// generic.
#pragma once

#include <charconv>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

#include "util/check.hpp"

namespace treecache {
class Rng;
}  // namespace treecache

namespace treecache::fib {

/// Address-family traits, one specialization per key width. `kWidth` is
/// the key width in bits, `kName` the family name used in error messages;
/// `parse`/`to_string` implement the family's textual address form (parse
/// is strict and throws CheckFailure with 1-based column positions);
/// `random` draws uniform key bits from the simulation RNG.
template <typename BitsT>
struct AddressFamily;  // specialized for Address (32) and Address6 (128)

using Address = std::uint32_t;

template <>
struct AddressFamily<Address> {
  static constexpr unsigned kWidth = 32;
  static constexpr const char* kName = "IPv4";
  [[nodiscard]] static std::string to_string(Address addr);
  /// Strict dotted-quad parser: exactly four decimal octets in [0, 255],
  /// nothing before or after. Errors carry the 1-based column.
  [[nodiscard]] static Address parse(std::string_view text);
  [[nodiscard]] static Address random(Rng& rng);
};

/// The netmask for `length`: all-ones in the top `length` bits of a
/// width-kWidth key.
template <typename BitsT>
[[nodiscard]] constexpr BitsT prefix_mask(std::uint8_t length) {
  constexpr unsigned kWidth = AddressFamily<BitsT>::kWidth;
  if (length == 0) return BitsT{};
  return static_cast<BitsT>((~BitsT{}) << (kWidth - length));
}

/// A prefix `bits/length` over a width-parameterized key; bits beyond
/// `length` are stored as zero. Ordering is (bits, length) via the
/// defaulted comparison — total and deterministic, which the set-based
/// RIB generator relies on. It also lists every prefix after the prefixes
/// that contain it, the preorder the rule-tree build walks.
template <typename BitsT>
struct BasicPrefix {
  using Bits = BitsT;
  static constexpr unsigned kWidth = AddressFamily<BitsT>::kWidth;

  BitsT bits{};
  std::uint8_t length = 0;  // 0..kWidth

  /// Normalizes the host bits (beyond /length) to zero.
  static BasicPrefix make(BitsT bits, std::uint8_t length) {
    TC_CHECK(length <= kWidth, "prefix length out of range");
    return BasicPrefix{static_cast<BitsT>(bits & prefix_mask<BitsT>(length)),
                       length};
  }

  /// Parses "<address>/<length>" in the family's textual form. Strict:
  /// rejects malformed addresses, out-of-range lengths, host bits set
  /// beyond /length, and trailing garbage — errors carry 1-based column
  /// positions so feed files fail loudly and point at the byte.
  static BasicPrefix parse(const std::string& text);

  [[nodiscard]] bool contains(const BitsT& addr) const {
    return (addr & prefix_mask<BitsT>(length)) == bits;
  }

  /// True iff this prefix covers `other` (equal or shorter matching prefix).
  [[nodiscard]] bool contains(const BasicPrefix& other) const {
    return length <= other.length && contains(other.bits);
  }

  [[nodiscard]] std::string to_string() const {
    return AddressFamily<BitsT>::to_string(bits) + "/" +
           std::to_string(length);
  }

  friend auto operator<=>(const BasicPrefix&, const BasicPrefix&) = default;
};

template <typename BitsT>
BasicPrefix<BitsT> BasicPrefix<BitsT>::parse(const std::string& text) {
  using Family = AddressFamily<BitsT>;
  const auto fail = [&](const std::string& what, std::size_t column) {
    return CheckFailure(std::string(Family::kName) + " prefix \"" + text +
                        "\": " + what + " at column " +
                        std::to_string(column + 1));
  };
  const auto slash = text.find('/');
  if (slash == std::string::npos) throw fail("expected '/<length>'", text.size());
  const BitsT addr = Family::parse(std::string_view(text).substr(0, slash));
  const std::string_view len_text = std::string_view(text).substr(slash + 1);
  unsigned length = 0;
  const auto [end, ec] = std::from_chars(
      len_text.data(), len_text.data() + len_text.size(), length);
  if (ec != std::errc{} || end == len_text.data()) {
    throw fail("expected a decimal prefix length", slash + 1);
  }
  if (end != len_text.data() + len_text.size()) {
    throw fail("trailing characters after the prefix length",
               slash + 1 + static_cast<std::size_t>(end - len_text.data()));
  }
  if (length > kWidth) {
    throw fail("prefix length " + std::to_string(length) + " exceeds /" +
                   std::to_string(kWidth),
               slash + 1);
  }
  const auto len8 = static_cast<std::uint8_t>(length);
  if ((addr & prefix_mask<BitsT>(len8)) != addr) {
    throw fail("host bits set beyond /" + std::to_string(length), 0);
  }
  return BasicPrefix{addr, len8};
}

using Prefix = BasicPrefix<Address>;

[[nodiscard]] std::string address_to_string(Address addr);
[[nodiscard]] Address parse_address(const std::string& text);

}  // namespace treecache::fib
