#include "tree/subforest.hpp"

#include <algorithm>

namespace treecache {

bool Subforest::children_cached(std::uint32_t r) const {
  // First child of rank r is r + 1; the next sibling of c is c + |T(c)|.
  const auto sizes = tree_->preorder_sizes();
  for (std::uint32_t c = r + 1; c < r + sizes[r]; c += sizes[c]) {
    if (!contains_rank(c)) return false;
  }
  return true;
}

bool Subforest::parent_cached(std::uint32_t r) const {
  const std::uint32_t p = tree_->preorder_parent(r);
  return p != kNoNode && contains_rank(p);
}

void Subforest::clear_slice(std::uint32_t begin, std::uint32_t end) {
  TC_DCHECK(begin <= end && end <= tree_->size(), "rank slice out of range");
  if (begin >= end) return;
#ifndef NDEBUG
  for (std::uint32_t r = begin; r < end; ++r) {
    TC_DCHECK(contains_rank(r), "clear_slice needs a fully cached slice");
  }
#endif
  const std::uint32_t first = begin >> 6;
  const std::uint32_t last = (end - 1) >> 6;  // inclusive word index
  const std::uint64_t head = ~std::uint64_t{0} << (begin & 63);
  const std::uint64_t tail = ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
  if (first == last) {
    bits_[first] &= ~(head & tail);
  } else {
    bits_[first] &= ~head;
    std::fill(bits_.begin() + first + 1, bits_.begin() + last, 0);
    bits_[last] &= ~tail;
  }
  size_ -= end - begin;
}

std::uint64_t Subforest::missing_ranks(std::uint32_t begin, std::uint32_t end,
                                       std::vector<std::uint32_t>& out) const {
  TC_DCHECK(begin <= end && end <= tree_->size(), "rank slice out of range");
  const std::uint32_t* sizes = tree_->preorder_sizes().data();
  std::uint64_t visits = 0;
  for (std::uint32_t r = begin; r < end;) {
    ++visits;
    if (contains_rank(r)) {
      r += sizes[r];  // descendant-closure: all of T(r) is cached
      continue;
    }
    out.push_back(r);
    ++r;
  }
  return visits;
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
  for_each_cached_rank([&](std::uint32_t r) {
    const std::uint32_t p = tree_->preorder_parent(r);
    if (p == kNoNode || !contains_rank(p)) {
      out.push_back(tree_->from_preorder(r));
    }
  });
  std::sort(out.begin(), out.end());
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
  // The same slice scan TC's collect_missing runs. It appends ranks (=
  // preorder, parents first), which are translated to NodeIds in place,
  // so a reused `out` means no allocation at all.
  const std::uint32_t ru = tree_->preorder_index(u);
  missing_ranks(ru, ru + tree_->subtree_size(u), out);
  for (NodeId& v : out) v = tree_->from_preorder(v);
}

std::vector<NodeId> Subforest::as_vector() const {
  std::vector<NodeId> out;
  as_vector(out);
  return out;
}

void Subforest::as_vector(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(size_);
  for_each_cached_rank(
      [&](std::uint32_t r) { out.push_back(tree_->from_preorder(r)); });
  std::sort(out.begin(), out.end());
}

}  // namespace treecache
