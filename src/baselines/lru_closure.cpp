#include "baselines/lru_closure.hpp"

#include <algorithm>
#include <memory>

#include "sim/registry.hpp"

namespace treecache {

LruClosure::LruClosure(const Tree& tree, LruClosureConfig config)
    : tree_(&tree),
      config_(config),
      cache_(tree),
      recency_(tree.size(), 0) {
  check_alpha(config_.alpha, tree.size());
  TC_CHECK(config_.capacity >= 1, "capacity must be at least 1");
}

void LruClosure::reset() {
  cache_.clear();
  cost_ = Cost{};
  round_ = 0;
  std::fill(recency_.begin(), recency_.end(), std::uint64_t{0});
  changeset_.clear();
  evict_buf_.clear();
  missing_buf_.clear();
  roots_buf_.clear();
}

StepOutcome LruClosure::step(Request request) {
  TC_CHECK(request.node < tree_->size(), "request outside the tree");
  ++round_;
  return request.sign == Sign::kPositive ? handle_positive(request.node)
                                         : handle_negative(request.node);
}

void LruClosure::touch(NodeId v) {
  recency_[cache_.cached_tree_root(v)] = round_;
}

void LruClosure::evict_one_root(NodeId protect) {
  // Evict the least-recently-used maximal root (a valid single-node
  // negative changeset); prefer victims outside T(protect) so an imminent
  // fetch into that subtree does not immediately refetch them. A recency
  // tie goes to the root first in preorder, so the choice does not depend
  // on how the tree numbers its nodes. Children of the victim become roots
  // inheriting its recency.
  cache_.maximal_roots(roots_buf_);
  const auto& roots = roots_buf_;
  TC_CHECK(!roots.empty(), "evict_one_root on an empty cache");
  NodeId victim = kNoNode;
  for (const NodeId r : roots) {
    if (tree_->is_ancestor_or_self(protect, r)) continue;
    if (victim == kNoNode || recency_[r] < recency_[victim]) victim = r;
  }
  if (victim == kNoNode) {  // everything cached lives under the protectee
    victim = roots.front();
    for (const NodeId r : roots) {
      if (recency_[r] < recency_[victim]) victim = r;
    }
  }
  for (const NodeId c : tree_->children(victim)) {
    if (cache_.contains(c)) recency_[c] = recency_[victim];
  }
  cache_.erase(victim);
  evict_buf_.push_back(victim);
}

StepOutcome LruClosure::handle_positive(NodeId v) {
  StepOutcome out;
  if (cache_.contains(v)) {
    touch(v);
    return out;  // hit, free
  }
  out.paid = true;
  ++cost_.service;

  // After the fetch the whole T(v) is cached, so the closure can only fit
  // if the full subtree does.
  if (tree_->subtree_size(v) > config_.capacity) return out;  // bypass

  evict_buf_.clear();
  // Evictions can land inside T(v) (growing the missing closure), so the
  // closure is recomputed until the fetch fits. Each eviction shrinks the
  // cache, so this terminates.
  cache_.missing_subtree(v, missing_buf_);
  const auto& missing = missing_buf_;
  while (cache_.size() + missing.size() > config_.capacity) {
    evict_one_root(v);
    cache_.missing_subtree(v, missing_buf_);
  }
  changeset_.clear();
  for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
    cache_.insert(*it);
    changeset_.push_back(*it);
  }
  recency_[cache_.cached_tree_root(v)] = round_;
  cost_.reorg += config_.alpha * (evict_buf_.size() + missing.size());
  out.change = ChangeKind::kFetch;
  out.changed = changeset_;        // the fetched closure
  out.also_evicted = evict_buf_;   // LRU victims that made room
  return out;
}

StepOutcome LruClosure::handle_negative(NodeId v) {
  StepOutcome out;
  if (!cache_.contains(v)) return out;
  out.paid = true;
  ++cost_.service;
  if (!config_.evict_on_negative) return out;

  // Invalidate: evict v together with its cached ancestors. Those are
  // exactly the walk-up prefix v..top (a valid negative changeset: the
  // remaining cache keeps no node above an evicted one).
  changeset_.clear();
  for (NodeId u = v; u != kNoNode && cache_.contains(u);
       u = tree_->parent(u)) {
    changeset_.push_back(u);
  }
  std::reverse(changeset_.begin(), changeset_.end());  // top-down
  const std::uint64_t tree_recency = recency_[changeset_.front()];
  for (const NodeId u : changeset_) cache_.erase(u);
  // Children that stay cached become maximal roots and inherit recency.
  for (const NodeId u : changeset_) {
    for (const NodeId c : tree_->children(u)) {
      if (cache_.contains(c)) recency_[c] = tree_recency;
    }
  }
  cost_.reorg += config_.alpha * changeset_.size();
  out.change = ChangeKind::kEvict;
  out.changed = changeset_;
  return out;
}

namespace {
LruClosureConfig lru_config(const sim::Params& p, bool evict_on_negative) {
  return LruClosureConfig{.alpha = p.alpha(),
                          .capacity = p.capacity(),
                          .evict_on_negative = evict_on_negative};
}

const sim::AlgorithmRegistrar kRegisterLru{
    "lru", "ancestor-closure LRU (fetches root paths, evicts leaf-first)",
    [](const Tree& tree, const sim::Params& p) {
      return std::make_unique<LruClosure>(tree, lru_config(p, false));
    }};

const sim::AlgorithmRegistrar kRegisterLruInv{
    "lruinv",
    "LRU-closure that also evicts on paid negative requests",
    [](const Tree& tree, const sim::Params& p) {
      return std::make_unique<LruClosure>(tree, lru_config(p, true));
    }};
}  // namespace

}  // namespace treecache
