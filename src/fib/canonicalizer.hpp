// Appendix B: canonical solutions and the factor-2 cost bound.
//
// In the forwarding-table application a rule update is a chunk of α
// negative requests. A solution is *canonical* if it never modifies the
// cache in the middle of a chunk. Appendix B argues any solution B can be
// transformed online into a canonical B' by postponing all mid-chunk cache
// modifications to the chunk's end, with B'(I) ≤ 2·B(I).
//
// run_canonicalized replays a FIB request stream through an algorithm while
// simulating the postponement on a shadow cache, returning both costs so
// tests and benches can verify the bound (and measure the actual gap). The
// chunks are read off the requests: in the FIB model every negative request
// belongs to one update's α-chunk, so a run of negatives to one node is
// whole chunks, back-to-back updates to one rule included.
#pragma once

#include <cstdint>
#include <span>

#include "core/online_algorithm.hpp"
#include "tree/tree.hpp"

namespace treecache::fib {

struct CanonicalizationReport {
  Cost raw_cost;        // B: the algorithm's own cost
  Cost canonical_cost;  // B': serve from the shadow cache, sync at chunk end
  std::uint64_t chunks = 0;
  /// Chunks with a cache change strictly before their last round (a change
  /// at the last round happens after the whole chunk and is already
  /// canonical).
  std::uint64_t dirty_chunks = 0;

  [[nodiscard]] double ratio() const {
    return raw_cost.total() == 0
               ? 1.0
               : static_cast<double>(canonical_cost.total()) /
                     static_cast<double>(raw_cost.total());
  }
};

/// Replays `trace` through `alg` (which must start fresh on `tree`), each
/// run of negatives to one node read as whole α-chunks. The trace may end
/// inside its last chunk: that chunk counts, and its pending changes apply
/// after the last round. Any other run of negatives — one that a positive
/// request or another node cuts short of whole chunks — is refused with a
/// CheckFailure.
[[nodiscard]] CanonicalizationReport run_canonicalized(
    const Tree& tree, std::span<const Request> trace, std::uint64_t alpha,
    OnlineAlgorithm& alg);

}  // namespace treecache::fib
