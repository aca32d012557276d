// Cost accounting shared by all algorithms, and the α bound of the counter
// algorithms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

#include "util/check.hpp"

namespace treecache {

/// The α bound of TC, its naive oracle and LocalTC: 1 ≤ α ≤ INT64_MAX / |T|
/// (a Tree has at least one node). Their saturation tests multiply |X|·α in
/// u64 for X ⊆ T, and TC keeps I(u) = cnt(H(u)) − |H(u)|·α in an i64; past
/// the bound |X|·α wraps (2·2^63 reads 0) and a set saturates early.
inline void check_alpha(std::uint64_t alpha, std::size_t tree_size) {
  TC_CHECK(alpha >= 1, "alpha must be a positive integer");
  const std::uint64_t max =
      std::numeric_limits<std::int64_t>::max() / tree_size;
  TC_CHECK(alpha <= max,
           "alpha must be at most INT64_MAX / |T| = " + std::to_string(max));
}

/// Total cost = service (1 per paid request, bypassing model) +
/// reorganization (α per fetched or evicted node).
struct Cost {
  std::uint64_t service = 0;
  std::uint64_t reorg = 0;

  [[nodiscard]] std::uint64_t total() const { return service + reorg; }

  Cost& operator+=(const Cost& other) {
    service += other.service;
    reorg += other.reorg;
    return *this;
  }

  friend Cost operator+(Cost a, const Cost& b) { return a += b; }
  friend bool operator==(const Cost&, const Cost&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const Cost& c) {
  return os << "{service=" << c.service << ", reorg=" << c.reorg
            << ", total=" << c.total() << '}';
}

}  // namespace treecache
