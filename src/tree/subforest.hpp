// Cache state: a descendant-closed subset of a Tree.
//
// The paper requires the cache to be a subforest of T: if v is cached, all of
// T(v) is cached. Equivalently the cached set is a union of complete
// subtrees, the non-cached set is ancestor-closed, and every maximal cached
// tree is T(r) for its root r. Subforest stores the set as ONE word-packed
// bitmap indexed by preorder rank (bit r & 63 of word r >> 6) plus its size,
// and offers the validity predicates used by the algorithms, the
// specification checker and the tests.
//
// Rank indexing makes every subtree T(v) the contiguous bit slice
// [r, r + |T(v)|), so the subtree queries are slice scans with subtree-skip
// jumps and a whole-subtree eviction is a few masked word stores. Two faces
// share the bitmap:
//  * NodeId space (contains / insert / erase): each call translates through
//    Tree::preorder_index;
//  * rank space (contains_rank / set_rank / clear_rank / clear_slice /
//    missing_ranks): TreeCache runs its whole round in ranks and steps on
//    this bitmap directly, so cache() is the very set TC decides on.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "tree/tree.hpp"

namespace treecache {

class Subforest {
 public:
  /// Empty cache over `tree`. The tree must outlive the subforest.
  explicit Subforest(const Tree& tree)
      : tree_(&tree), bits_((tree.size() + 63) / 64, 0) {}

  [[nodiscard]] const Tree& tree() const { return *tree_; }

  [[nodiscard]] bool contains(NodeId v) const {
    return contains_rank(tree_->preorder_index(v));
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    std::fill(bits_.begin(), bits_.end(), std::uint64_t{0});
    size_ = 0;
  }

  /// Caches v. To preserve descendant-closure incrementally, all children of
  /// v must already be cached (apply fetch changesets bottom-up).
  void insert(NodeId v) { set_rank(tree_->preorder_index(v)); }

  /// Evicts v. The parent of v must not be cached (apply eviction changesets
  /// top-down).
  void erase(NodeId v) { clear_rank(tree_->preorder_index(v)); }

  // --- rank space ------------------------------------------------------
  // contains / insert / erase keyed by preorder rank (test, set or clear one
  // bit), with the same descendant-closure preconditions (debug-checked).

  [[nodiscard]] bool contains_rank(std::uint32_t r) const {
    TC_DCHECK(r < tree_->size(), "rank out of range");
    return ((bits_[r >> 6] >> (r & 63)) & 1) != 0;
  }
  void set_rank(std::uint32_t r) {
    TC_DCHECK(!contains_rank(r), "node already cached");
    TC_DCHECK(children_cached(r), "insert would break descendant-closure");
    bits_[r >> 6] |= std::uint64_t{1} << (r & 63);
    ++size_;
  }
  void clear_rank(std::uint32_t r) {
    TC_DCHECK(contains_rank(r), "node not cached");
    TC_DCHECK(!parent_cached(r), "erase would break descendant-closure");
    bits_[r >> 6] &= ~(std::uint64_t{1} << (r & 63));
    --size_;
  }
  /// Clears the rank slice [begin, end), every rank of which is cached:
  /// masked stores on its first and last word and a fill between them, not
  /// a per-rank loop. The caller keeps the rest descendant-closed, e.g. by
  /// passing T(r) of a maximal cached root r.
  void clear_slice(std::uint32_t begin, std::uint32_t end);

  /// Appends the non-cached ranks of [begin, end) to `out` in ascending
  /// order, jumping over each cached subtree (r += |T(r)|); returns the
  /// number of ranks visited (pushes plus jumps), the unit TreeCache::work()
  /// counts. For a slice T(u) with u non-cached this collects P_t(u).
  std::uint64_t missing_ranks(std::uint32_t begin, std::uint32_t end,
                              std::vector<std::uint32_t>& out) const;

  // --- queries ---------------------------------------------------------

  /// O(n) full validation of descendant-closure.
  [[nodiscard]] bool is_valid() const;

  /// True iff X is a valid positive changeset for this cache: X non-empty,
  /// disjoint from the cache, no duplicates, and cache ∪ X descendant-closed.
  [[nodiscard]] bool is_valid_positive_changeset(
      std::span<const NodeId> changeset) const;

  /// True iff X is a valid negative changeset: X non-empty, X ⊆ cache, no
  /// duplicates, and cache \ X descendant-closed.
  [[nodiscard]] bool is_valid_negative_changeset(
      std::span<const NodeId> changeset) const;

  /// Cached nodes whose parent is not cached — the roots of the maximal
  /// cached trees — in increasing id order. Scans the set bits of the
  /// bitmap, not the tree: O(n / 64 + size() · log size()).
  [[nodiscard]] std::vector<NodeId> maximal_roots() const;

  // Output-buffer forms of the collection queries, for hot-path callers
  // that would otherwise allocate a fresh vector every round: `out` is
  // cleared and refilled, so a reused buffer amortizes to zero allocations.
  // The convenience forms above delegate to these.

  /// maximal_roots() into `out`.
  void maximal_roots(std::vector<NodeId>& out) const;
  /// missing_subtree(u) into `out` (preorder, parents first).
  void missing_subtree(NodeId u, std::vector<NodeId>& out) const;
  /// as_vector() into `out` (increasing id order).
  void as_vector(std::vector<NodeId>& out) const;

  /// Root of the maximal cached tree containing v (requires contains(v)).
  /// O(depth) by walking up while the parent is cached.
  [[nodiscard]] NodeId cached_tree_root(NodeId v) const;

  /// All non-cached nodes of T(u), i.e. the paper's P_t(u). Requires
  /// !contains(u). The result is returned in preorder (parents first).
  [[nodiscard]] std::vector<NodeId> missing_subtree(NodeId u) const;

  /// Cached nodes in increasing id order, by the same set-bit scan.
  [[nodiscard]] std::vector<NodeId> as_vector() const;

  friend bool operator==(const Subforest& a, const Subforest& b) {
    return a.tree_ == b.tree_ && a.bits_ == b.bits_;
  }

 private:
  // Debug-check helpers for the rank-space preconditions.
  [[nodiscard]] bool children_cached(std::uint32_t r) const;
  [[nodiscard]] bool parent_cached(std::uint32_t r) const;

  /// Calls f(r) for each cached rank r, ascending: a scan of the set bits
  /// of each bitmap word, so O(n / 64 + size()) rather than O(n).
  template <typename F>
  void for_each_cached_rank(F&& f) const {
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      for (std::uint64_t word = bits_[w]; word != 0; word &= word - 1) {
        f(static_cast<std::uint32_t>(w * 64 + std::countr_zero(word)));
      }
    }
  }

  const Tree* tree_;
  std::vector<std::uint64_t> bits_;  // rank-indexed, (n + 63) / 64 words
  std::size_t size_ = 0;
};

}  // namespace treecache
