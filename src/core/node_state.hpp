// Preorder-indexed struct-of-arrays hot state for TC.
//
// TC's per-node counters and Section 6 indexes live here, in ONE block
// indexed by preorder rank instead of construction-order NodeId. Two
// properties make this the right layout for the Section 6 data structures:
//  * every subtree T(v) is the contiguous rank slice [r, r + |T(v)|), so
//    collect_missing / collect_h_set / phase_restart become linear scans
//    with O(1) subtree-skip jumps (`r += subtree_size`) instead of pointer-
//    chasing DFS over a CSR adjacency;
//  * the fields one ancestor-walk step reads together are packed into one
//    16-byte entry each (PosEntry for the positive walk, NegEntry for the
//    negative walk), so a step touches one or two cache lines instead of a
//    miss per parallel array.
//
// The cached set itself is not here: it is TC's Subforest, a word-packed
// bitmap over the same ranks (tree/subforest.hpp), which TC steps on
// directly.
//
// Counters and the positive index carry phase-reset semantics: each slot is
// stamped with the epoch it was last written in and reads from older epochs
// observe zero, giving the O(1) bulk reset that Theorem 6.1 needs (a real
// O(|T|) clear per phase restart would break the work bound — the tree can
// be much larger than the cache). One shared epoch suffices because TC only
// ever resets the counters and the positive index together. The negative
// index needs no stamps: it is only read for cached nodes and re-initialized
// bottom-up whenever a node is fetched.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace treecache {

class NodeState {
 public:
  /// §6.1 positive index entry, valid for non-cached ranks: cnt_t(P_t(u))
  /// and |cached ∩ T(u)| (so |P_t(u)| = subtree_size − cached_below).
  struct PosEntry {
    std::int64_t pcnt = 0;
    std::uint32_t cached_below = 0;
    std::uint32_t stamp = 0;
  };
  static_assert(sizeof(PosEntry) == 16);

  /// §6.2 negative index entry, valid for cached ranks:
  /// I(u) = cnt(H(u)) − |H(u)|·α and S(u) = |H(u)|.
  struct NegEntry {
    std::int64_t value = 0;
    std::uint64_t size = 0;
  };
  static_assert(sizeof(NegEntry) == 16);

  explicit NodeState(std::size_t n);

  // --- per-node counter (phase-reset semantics) -------------------------
  [[nodiscard]] std::uint64_t counter(std::uint32_t r) const {
    TC_DCHECK(r < cnt_.size(), "rank out of range");
    const Counter& c = cnt_[r];
    return c.stamp == epoch_ ? c.value : 0;
  }
  /// Returns the new counter value.
  std::uint64_t bump_counter(std::uint32_t r) {
    TC_DCHECK(r < cnt_.size(), "rank out of range");
    Counter& c = cnt_[r];
    if (c.stamp != epoch_) {
      c.value = 0;
      c.stamp = epoch_;
    }
    return ++c.value;
  }
  void reset_counter(std::uint32_t r) {
    TC_DCHECK(r < cnt_.size(), "rank out of range");
    cnt_[r] = Counter{.value = 0, .stamp = epoch_};
  }

  // --- positive index ---------------------------------------------------
  /// Mutable freshen-on-touch access: a slot last written in an older phase
  /// is reset to zeros before it is handed out, so callers read and write
  /// plain fields without epoch logic of their own.
  [[nodiscard]] PosEntry& pos(std::uint32_t r) {
    TC_DCHECK(r < pos_.size(), "rank out of range");
    PosEntry& e = pos_[r];
    if (e.stamp != epoch_) {
      e = PosEntry{.pcnt = 0, .cached_below = 0, .stamp = epoch_};
    }
    return e;
  }
  [[nodiscard]] std::int64_t pcnt(std::uint32_t r) const {
    TC_DCHECK(r < pos_.size(), "rank out of range");
    const PosEntry& e = pos_[r];
    return e.stamp == epoch_ ? e.pcnt : 0;
  }
  [[nodiscard]] std::uint32_t cached_below(std::uint32_t r) const {
    TC_DCHECK(r < pos_.size(), "rank out of range");
    const PosEntry& e = pos_[r];
    return e.stamp == epoch_ ? e.cached_below : 0;
  }

  // --- negative index ---------------------------------------------------
  [[nodiscard]] NegEntry& neg(std::uint32_t r) {
    TC_DCHECK(r < neg_.size(), "rank out of range");
    return neg_[r];
  }
  [[nodiscard]] const NegEntry& neg(std::uint32_t r) const {
    TC_DCHECK(r < neg_.size(), "rank out of range");
    return neg_[r];
  }

  /// New phase: counters and the positive index back to zero in O(1).
  void new_phase();

  /// Full reset to the freshly-constructed state (also clears the negative
  /// index; O(n)).
  void reset();

  // --- test seam --------------------------------------------------------
  /// Forces the epoch counter so tests can exercise the clear-on-wrap
  /// branch of new_phase() without 2^32 phase restarts.
  void debug_set_epoch(std::uint32_t epoch) { epoch_ = epoch; }
  [[nodiscard]] std::uint32_t debug_epoch() const { return epoch_; }

 private:
  /// Per-node counter with phase-reset stamp.
  struct Counter {
    std::uint64_t value = 0;
    std::uint32_t stamp = 0;
  };
  static_assert(sizeof(Counter) == 16);  // 4 bytes tail padding

  std::vector<Counter> cnt_;
  std::vector<PosEntry> pos_;
  std::vector<NegEntry> neg_;
  std::uint32_t epoch_ = 1;
};

}  // namespace treecache
