#include "baselines/local_tc.hpp"

#include <algorithm>
#include <memory>

#include "sim/registry.hpp"

namespace treecache {

LocalTc::LocalTc(const Tree& tree, LocalTcConfig config)
    : tree_(&tree), config_(config), cache_(tree), cnt_(tree.size(), 0) {
  check_alpha(config_.alpha, tree.size());
  TC_CHECK(config_.capacity >= 1, "capacity must be at least 1");
}

void LocalTc::reset() {
  cache_.clear();
  cost_ = Cost{};
  std::fill(cnt_.begin(), cnt_.end(), std::uint64_t{0});
  changeset_.clear();
  missing_buf_.clear();
}

StepOutcome LocalTc::step(Request request) {
  TC_CHECK(request.node < tree_->size(), "request outside the tree");
  return request.sign == Sign::kPositive ? handle_positive(request.node)
                                         : handle_negative(request.node);
}

StepOutcome LocalTc::handle_positive(NodeId v) {
  StepOutcome out;
  if (cache_.contains(v)) return out;
  out.paid = true;
  ++cost_.service;
  ++cnt_[v];

  cache_.missing_subtree(v, missing_buf_);
  const auto& missing = missing_buf_;
  if (cnt_[v] < missing.size() * config_.alpha) return out;

  if (cache_.size() + missing.size() > config_.capacity) {
    // Restart: evict everything, reset all counters.
    cache_.as_vector(changeset_);
    std::sort(changeset_.begin(), changeset_.end(), [&](NodeId a, NodeId b) {
      return tree_->depth(a) < tree_->depth(b);
    });
    for (const NodeId x : changeset_) cache_.erase(x);
    cost_.reorg += config_.alpha * changeset_.size();
    std::fill(cnt_.begin(), cnt_.end(), std::uint64_t{0});
    out.change = ChangeKind::kPhaseRestart;
    out.aborted_fetch = missing;
    out.changed = changeset_;
    return out;
  }

  changeset_.assign(missing.begin(), missing.end());
  for (auto it = changeset_.rbegin(); it != changeset_.rend(); ++it) {
    cache_.insert(*it);
    cnt_[*it] = 0;
  }
  cost_.reorg += config_.alpha * changeset_.size();
  out.change = ChangeKind::kFetch;
  out.changed = changeset_;
  return out;
}

StepOutcome LocalTc::handle_negative(NodeId v) {
  StepOutcome out;
  if (!cache_.contains(v)) return out;
  out.paid = true;
  ++cost_.service;
  ++cnt_[v];

  // The minimal eviction containing v: v plus its cached ancestors.
  std::size_t cap_size = 0;
  for (NodeId u = v; u != kNoNode && cache_.contains(u);
       u = tree_->parent(u)) {
    ++cap_size;
  }
  if (cnt_[v] < cap_size * config_.alpha) return out;

  changeset_.clear();
  for (NodeId u = v; u != kNoNode && cache_.contains(u);
       u = tree_->parent(u)) {
    changeset_.push_back(u);
  }
  std::reverse(changeset_.begin(), changeset_.end());
  for (const NodeId u : changeset_) {
    cache_.erase(u);
    cnt_[u] = 0;
  }
  cost_.reorg += config_.alpha * changeset_.size();
  out.change = ChangeKind::kEvict;
  out.changed = changeset_;
  return out;
}

namespace {
const sim::AlgorithmRegistrar kRegisterLocal{
    "local",
    "greedy single-node variant of TC (no changeset saturation)",
    [](const Tree& tree, const sim::Params& p) {
      return std::make_unique<LocalTc>(
          tree,
          LocalTcConfig{.alpha = p.alpha(), .capacity = p.capacity()});
    }};
}  // namespace

}  // namespace treecache
