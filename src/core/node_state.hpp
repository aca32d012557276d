// Preorder-indexed hot state for TC: one 24-byte record per rank.
//
// TC's per-node counters and Section 6 indexes live here, in ONE array
// indexed by preorder rank instead of construction-order NodeId. Two
// properties make this the right layout for the Section 6 data structures:
//  * every subtree T(v) is the contiguous rank slice [r, r + |T(v)|), so
//    collect_missing / collect_h_set / phase_restart become linear scans
//    with O(1) subtree-skip jumps (`r += subtree_size`) instead of pointer-
//    chasing DFS over a CSR adjacency;
//  * all one ancestor-walk step reads sits in one record, so a step touches
//    one cache line (two if the record straddles) instead of one per array.
//
// Section 6 needs the positive index (cnt(P_t(u)), |cached ∩ T(u)|) only
// while u is not cached and the negative index (I(u), S(u)) only while it
// is, so the two share a record's bytes: a fetch overwrites the record with
// (I, S) and a zero counter, an evict with (0, cached_below) and a zero
// counter. Field widths are exact while |T|·α ≤ INT64_MAX (check_alpha).
//
// Each record carries an epoch stamp; a stale one reads as zeros and is
// zeroed as a whole on first touch. That is the O(1) bulk reset Theorem 6.1
// needs (an O(|T|) clear per phase restart would break the work bound: the
// tree can be much larger than the cache). The epoch only moves while the
// cache is empty, so no rank is read as (I, S) before a fetch rewrites it.
//
// The cached set itself is not here: it is TC's Subforest, a word-packed
// bitmap over the same ranks (tree/subforest.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace treecache {

class NodeState {
 public:
  struct Record {
    /// cnt_t(P_t(u)) while u is not cached; I(u) = cnt(H(u)) − |H(u)|·α
    /// while it is.
    std::int64_t value = 0;
    /// cnt_t(u), u's own counter.
    std::uint64_t counter = 0;
    /// |cached ∩ T(u)| while u is not cached (|P_t(u)| = |T(u)| − size);
    /// S(u) = |H(u)| while it is.
    std::uint32_t size = 0;
    std::uint32_t stamp = 0;
  };
  static_assert(sizeof(Record) == 24);

  explicit NodeState(std::size_t n) : slots_(n) {}

  // --- any rank -----------------------------------------------------------
  [[nodiscard]] std::uint64_t counter(std::uint32_t r) const {
    return live(r) ? slots_[r].counter : 0;
  }
  /// Returns the new counter value.
  std::uint64_t bump_counter(std::uint32_t r) { return ++fresh(r).counter; }

  // --- positive index (non-cached ranks) ----------------------------------
  /// Freshen-on-touch: a stale record is zeroed before it is handed out, so
  /// callers read and write plain fields without epoch logic of their own.
  [[nodiscard]] Record& pos(std::uint32_t r) { return fresh(r); }
  [[nodiscard]] std::int64_t pcnt(std::uint32_t r) const {
    return live(r) ? slots_[r].value : 0;
  }
  [[nodiscard]] std::uint32_t cached_below(std::uint32_t r) const {
    return live(r) ? slots_[r].size : 0;
  }

  // --- negative index (cached ranks, all fetched this epoch) --------------
  [[nodiscard]] Record& neg(std::uint32_t r) {
    TC_DCHECK(live(r), "(I, S) of a rank not fetched this phase");
    return slots_[r];
  }
  [[nodiscard]] const Record& neg(std::uint32_t r) const {
    TC_DCHECK(live(r), "(I, S) of a rank not fetched this phase");
    return slots_[r];
  }

  // --- cache transitions: the counter restarts at zero --------------------
  void fetch(std::uint32_t r, std::int64_t i_value, std::uint32_t s_value) {
    TC_DCHECK(r < slots_.size(), "rank out of range");
    slots_[r] = Record{i_value, 0, s_value, epoch_};
  }
  void evict(std::uint32_t r, std::uint32_t cached_below) {
    TC_DCHECK(r < slots_.size(), "rank out of range");
    slots_[r] = Record{0, 0, cached_below, epoch_};
  }

  /// New phase: every record reads as zero, in O(1) (an O(|T|) clear only
  /// when the u32 epoch wraps). The cache must be empty.
  void new_phase() {
    if (++epoch_ == 0) {  // wrapped: stamps are ambiguous, really clear
      std::fill(slots_.begin(), slots_.end(), Record{});
      epoch_ = 1;
    }
  }
  /// Back to the freshly-constructed state: the same epoch bump, since a
  /// full reset empties the cache too.
  void reset() { new_phase(); }

  // --- test seams -------------------------------------------------------
  /// Forces the epoch counter so tests can exercise the clear-on-wrap
  /// branch of new_phase() without 2^32 phase restarts.
  void debug_set_epoch(std::uint32_t epoch) { epoch_ = epoch; }
  [[nodiscard]] std::uint32_t debug_epoch() const { return epoch_; }
  /// The record as stored, stale or not.
  [[nodiscard]] const Record& debug_raw(std::uint32_t r) const {
    return slots_.at(r);
  }

 private:
  [[nodiscard]] bool live(std::uint32_t r) const {
    TC_DCHECK(r < slots_.size(), "rank out of range");
    return slots_[r].stamp == epoch_;
  }
  Record& fresh(std::uint32_t r) {
    if (!live(r)) slots_[r] = Record{.stamp = epoch_};
    return slots_[r];
  }

  std::vector<Record> slots_;
  std::uint32_t epoch_ = 1;
};

}  // namespace treecache
