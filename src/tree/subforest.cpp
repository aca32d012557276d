#include "tree/subforest.hpp"

#include <algorithm>

#include "core/kernels.hpp"

namespace treecache {

void Subforest::insert(NodeId v) {
  TC_DCHECK(!contains(v), "node already cached");
#ifndef NDEBUG
  for (const NodeId c : tree_->children(v)) {
    TC_DCHECK(contains(c), "insert would break descendant-closure");
  }
#endif
  cached_[v] = 1;
  const std::uint32_t r = tree_->preorder_index(v);
  rank_bits_[r >> 6] |= std::uint64_t{1} << (r & 63);
  ++size_;
}

void Subforest::erase(NodeId v) {
  TC_DCHECK(contains(v), "node not cached");
#ifndef NDEBUG
  const NodeId p = tree_->parent(v);
  TC_DCHECK(p == kNoNode || !contains(p),
            "erase would break descendant-closure");
#endif
  cached_[v] = 0;
  const std::uint32_t r = tree_->preorder_index(v);
  rank_bits_[r >> 6] &= ~(std::uint64_t{1} << (r & 63));
  --size_;
}

bool Subforest::is_valid() const {
  for (NodeId v = 0; v < tree_->size(); ++v) {
    if (!contains(v)) continue;
    for (const NodeId c : tree_->children(v)) {
      if (!contains(c)) return false;
    }
  }
  return true;
}

bool Subforest::is_valid_positive_changeset(
    std::span<const NodeId> changeset) const {
  if (changeset.empty()) return false;
  std::vector<std::uint8_t> added(tree_->size(), 0);
  for (const NodeId v : changeset) {
    if (v >= tree_->size()) return false;
    if (contains(v)) return false;   // must be disjoint from the cache
    if (added[v]) return false;      // no duplicates
    added[v] = 1;
  }
  for (const NodeId v : changeset) {
    for (const NodeId c : tree_->children(v)) {
      if (!contains(c) && !added[c]) return false;
    }
  }
  return true;
}

bool Subforest::is_valid_negative_changeset(
    std::span<const NodeId> changeset) const {
  if (changeset.empty()) return false;
  std::vector<std::uint8_t> removed(tree_->size(), 0);
  for (const NodeId v : changeset) {
    if (v >= tree_->size()) return false;
    if (!contains(v)) return false;  // must be inside the cache
    if (removed[v]) return false;    // no duplicates
    removed[v] = 1;
  }
  // cache \ X descendant-closed ⇔ X ancestor-closed within the cache:
  // an evicted node's cached parent must be evicted too.
  for (const NodeId v : changeset) {
    const NodeId p = tree_->parent(v);
    if (p != kNoNode && contains(p) && !removed[p]) return false;
  }
  return true;
}

std::vector<NodeId> Subforest::maximal_roots() const {
  std::vector<NodeId> roots;
  maximal_roots(roots);
  return roots;
}

void Subforest::maximal_roots(std::vector<NodeId>& out) const {
  out.clear();
  for (NodeId v = 0; v < tree_->size(); ++v) {
    if (!contains(v)) continue;
    const NodeId p = tree_->parent(v);
    if (p == kNoNode || !contains(p)) out.push_back(v);
  }
}

NodeId Subforest::cached_tree_root(NodeId v) const {
  TC_CHECK(contains(v), "node not cached");
  NodeId u = v;
  for (NodeId p = tree_->parent(u); p != kNoNode && contains(p);
       p = tree_->parent(u)) {
    u = p;
  }
  return u;
}

std::vector<NodeId> Subforest::missing_subtree(NodeId u) const {
  std::vector<NodeId> result;
  missing_subtree(u, result);
  return result;
}

void Subforest::missing_subtree(NodeId u, std::vector<NodeId>& out) const {
  TC_CHECK(!contains(u), "P_t(u) is defined for non-cached u only");
  out.clear();
  // T(u) is a contiguous preorder-rank slice; a cached node's subtree is
  // entirely cached (descendant-closure), so the scan skips it as one
  // jump. The scan appends ranks (= preorder, parents first); they are
  // translated to NodeIds in place, so a reused `out` means no allocation
  // at all.
  const std::uint32_t ru = tree_->preorder_index(u);
  const kernels::MissingScan scan{.cached_bits = rank_bits_.data(),
                                  .sizes = tree_->preorder_sizes().data(),
                                  .cnt = nullptr,
                                  .epoch = 0};
  kernels::scan_missing(scan, ru, ru + tree_->subtree_size(u), out);
  const auto from = tree_->from_preorder();
  for (NodeId& v : out) v = from[v];
}

std::vector<NodeId> Subforest::as_vector() const {
  std::vector<NodeId> out;
  as_vector(out);
  return out;
}

void Subforest::as_vector(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(size_);
  for (NodeId v = 0; v < tree_->size(); ++v) {
    if (contains(v)) out.push_back(v);
  }
}

}  // namespace treecache
