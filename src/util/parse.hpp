// Strict number parsing for every textual knob: command-line flags,
// registry parameters, CSV lists and bench environment variables.
//
// The whole text must be the number. std::stoull and std::stod skip leading
// whitespace, ignore trailing junk ("4x" reads as 4) and let an unsigned
// parse take a sign ("-1" reads as 2^64 − 1), so each of those is refused
// here. Callers name the flag or key in their own error message.
#pragma once

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace treecache {

/// `text` as an unsigned integer: digits only, no sign, in range.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(
    std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

/// `text` as a finite double ("nan" and "inf" are refused, as is a value
/// out of range).
[[nodiscard]] inline std::optional<double> parse_double(
    std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// The bounds of an inclusive range for an out-of-range error, e.g.
/// "at least 0, at most 1".
[[nodiscard]] inline std::string range_text(double min, double max) {
  const auto shortest = [](double value) {
    std::array<char, 32> text{};
    const auto result =
        std::to_chars(text.data(), text.data() + text.size(), value);
    return std::string(text.data(), result.ptr);
  };
  return "at least " + shortest(min) + ", at most " + shortest(max);
}

}  // namespace treecache
