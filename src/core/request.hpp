// Requests of the online tree caching problem.
#pragma once

#include <cstdint>
#include <ostream>

#include "tree/tree.hpp"

namespace treecache {

/// A request is positive ("access this item") or negative ("this item was
/// updated"). A positive request costs 1 iff the node is NOT cached; a
/// negative request costs 1 iff the node IS cached.
enum class Sign : std::uint8_t { kPositive = 0, kNegative = 1 };

struct Request {
  NodeId node = 0;
  Sign sign = Sign::kPositive;
  /// A packet at the switch of Figure 1, which OnlineAlgorithm::step_batch
  /// looks up in the cache before anything is stepped. The sign stays
  /// positive, so a path that ignores the flag serves a packet as the
  /// controller would.
  bool packet = false;

  friend bool operator==(const Request&, const Request&) = default;
};
static_assert(sizeof(Request) == 8, "a request stays 8 bytes");

inline Request positive(NodeId v) { return Request{v, Sign::kPositive}; }
inline Request negative(NodeId v) { return Request{v, Sign::kNegative}; }
inline Request packet(NodeId v) {
  return Request{v, Sign::kPositive, /*packet=*/true};
}

inline std::ostream& operator<<(std::ostream& os, const Request& r) {
  return os << (r.sign == Sign::kPositive ? '+' : '-') << r.node;
}

}  // namespace treecache
