// The two slice scans behind every TC subtree collection.
//
// In the preorder layout (core/node_state.hpp) every subtree T(u) is the
// contiguous rank slice [ru, ru + |T(u)|), so a collection is one linear
// scan of that slice, and a subtree the scan must not enter is skipped as
// one jump (r += size(r)). Each scan appends the collected ranks in
// ascending order and returns their epoch-valid counter mass plus its
// visit count (pushes + subtree-skip jumps) — the unit TreeCache::work()
// counts for Theorem 6.1's O(h + max{h,deg}·|X|) round bound.
//
//  * scan_missing — the uncached ranks of a slice: a cached node's whole
//    subtree is cached (descendant-closure), so it is skipped as one jump.
//    Each visited rank costs one bit test on the word-packed cached bitmap.
//  * scan_h_candidates — H(u): the scan root, then every rank none of
//    whose strict ancestors inside the slice has I < 0; a subtree whose
//    root has I < 0 is skipped as one jump.
#pragma once

#include <cstdint>
#include <vector>

#include "core/node_state.hpp"

namespace treecache::kernels {

/// Result of a collection scan: the epoch-valid counter mass of the
/// collected ranks plus the number of loop visits (pushes + subtree-skip
/// jumps), which TreeCache adds to work().
struct ScanResult {
  std::uint64_t total = 0;
  std::uint64_t visits = 0;
};

/// Stripe view of a missing-scan (collect_missing / missing_subtree):
/// rank-indexed word-packed cached bitmap, subtree-size stripe, and an
/// optional epoch-stamped counter stripe (null skips the counter sum).
struct MissingScan {
  const std::uint64_t* cached_bits = nullptr;
  const std::uint32_t* sizes = nullptr;
  const NodeState::Counter* cnt = nullptr;
  std::uint32_t epoch = 0;
};

/// Stripe view of an H-set scan (collect_h_set): NegEntry stripe holding
/// the packed (I, S) aggregates, subtree sizes, and the counter stripe.
struct HScan {
  const NodeState::NegEntry* neg = nullptr;
  const std::uint32_t* sizes = nullptr;
  const NodeState::Counter* cnt = nullptr;
  std::uint32_t epoch = 0;
};

/// Collected ranks land in a plain vector (appended, ascending).
using RankVec = std::vector<std::uint32_t>;

/// Appends the uncached ranks of [ru, end) to `out` (ascending), jumping
/// over cached subtrees (r += sizes[r]); returns their epoch-valid counter
/// mass and the visit count.
ScanResult scan_missing(const MissingScan& s, std::uint32_t ru,
                        std::uint32_t end, RankVec& out);

/// Appends H(u) over [ru, end) to `out` (ascending): ru always, below it
/// every rank whose NegEntry value is >= 0, skipping I < 0 subtrees as one
/// jump; returns counter mass + visits.
ScanResult scan_h_candidates(const HScan& s, std::uint32_t ru,
                             std::uint32_t end, RankVec& out);

}  // namespace treecache::kernels
