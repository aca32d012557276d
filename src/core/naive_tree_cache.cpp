#include "core/naive_tree_cache.hpp"

#include <algorithm>
#include <memory>

#include "sim/registry.hpp"

namespace treecache {

NaiveTreeCache::NaiveTreeCache(const Tree& tree, NaiveTreeCacheConfig config)
    : tree_(&tree),
      config_(config),
      cache_(tree),
      cnt_(tree.size(), 0) {
  check_alpha(config_.alpha, tree.size());
  TC_CHECK(config_.capacity >= 1, "capacity must be at least 1");
}

void NaiveTreeCache::reset() {
  cache_.clear();
  std::fill(cnt_.begin(), cnt_.end(), std::uint64_t{0});
  cost_ = Cost{};
  changeset_.clear();
}

StepOutcome NaiveTreeCache::step(Request request) {
  TC_CHECK(request.node < tree_->size(), "request to node outside the tree");
  return request.sign == Sign::kPositive ? handle_positive(request.node)
                                         : handle_negative(request.node);
}

void NaiveTreeCache::measure_missing(NodeId u, std::uint64_t& cnt_out,
                                     std::uint64_t& size_out) const {
  cnt_out = 0;
  size_out = 0;
  std::vector<NodeId> stack{u};
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    cnt_out += cnt_[x];
    ++size_out;
    for (const NodeId c : tree_->children(x)) {
      if (!cache_.contains(c)) stack.push_back(c);
    }
  }
}

std::pair<std::int64_t, std::uint64_t> NaiveTreeCache::best_cap(
    NodeId x) const {
  std::int64_t i_value = static_cast<std::int64_t>(cnt_[x]) -
                         static_cast<std::int64_t>(config_.alpha);
  std::uint64_t s_value = 1;
  for (const NodeId c : tree_->children(x)) {
    const auto [ci, cs] = best_cap(c);
    if (ci >= 0) {
      i_value += ci;
      s_value += cs;
    }
  }
  return {i_value, s_value};
}

void NaiveTreeCache::collect_best_cap(NodeId u) {
  changeset_.clear();
  std::vector<NodeId> stack{u};
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    changeset_.push_back(x);
    for (const NodeId c : tree_->children(x)) {
      if (best_cap(c).first >= 0) stack.push_back(c);
    }
  }
}

StepOutcome NaiveTreeCache::handle_positive(NodeId v) {
  if (cache_.contains(v)) return {};
  StepOutcome out;
  out.paid = true;
  ++cost_.service;
  ++cnt_[v];

  const std::vector<NodeId> path = tree_->path_to_root(v);
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const NodeId u = *it;
    std::uint64_t cnt_p = 0;
    std::uint64_t size_p = 0;
    measure_missing(u, cnt_p, size_p);
    if (cnt_p >= size_p * config_.alpha) {
      if (cache_.size() + size_p > config_.capacity) {
        // Record the abandoned fetch set, evict everything, new phase.
        aborted_buf_.clear();
        std::vector<NodeId> stack{u};
        while (!stack.empty()) {
          const NodeId x = stack.back();
          stack.pop_back();
          aborted_buf_.push_back(x);
          for (const NodeId c : tree_->children(x)) {
            if (!cache_.contains(c)) stack.push_back(c);
          }
        }
        changeset_ = cache_.as_vector();
        std::sort(changeset_.begin(), changeset_.end(),
                  [&](NodeId a, NodeId b) {
                    return tree_->depth(a) < tree_->depth(b);
                  });
        for (const NodeId x : changeset_) cache_.erase(x);
        cost_.reorg += config_.alpha * changeset_.size();
        start_new_phase();
        out.change = ChangeKind::kPhaseRestart;
        out.aborted_fetch = aborted_buf_;
        out.changed = changeset_;
      } else {
        changeset_.clear();
        std::vector<NodeId> stack{u};
        while (!stack.empty()) {
          const NodeId x = stack.back();
          stack.pop_back();
          changeset_.push_back(x);
          for (const NodeId c : tree_->children(x)) {
            if (!cache_.contains(c)) stack.push_back(c);
          }
        }
        for (auto xit = changeset_.rbegin(); xit != changeset_.rend(); ++xit) {
          cache_.insert(*xit);
          cnt_[*xit] = 0;
        }
        cost_.reorg += config_.alpha * changeset_.size();
        out.change = ChangeKind::kFetch;
        out.changed = changeset_;
      }
      return out;
    }
  }
  return out;
}

StepOutcome NaiveTreeCache::handle_negative(NodeId v) {
  if (!cache_.contains(v)) return {};
  StepOutcome out;
  out.paid = true;
  ++cost_.service;
  ++cnt_[v];

  const NodeId u = cache_.cached_tree_root(v);
  if (best_cap(u).first >= 0) {
    collect_best_cap(u);
    for (const NodeId x : changeset_) {
      cache_.erase(x);
      cnt_[x] = 0;
    }
    cost_.reorg += config_.alpha * changeset_.size();
    out.change = ChangeKind::kEvict;
    out.changed = changeset_;
  }
  return out;
}

void NaiveTreeCache::start_new_phase() {
  std::fill(cnt_.begin(), cnt_.end(), std::uint64_t{0});
}

namespace {
const sim::AlgorithmRegistrar kRegisterNaive{
    "naive",
    "reference TC implementation: re-scans all changesets every round",
    [](const Tree& tree, const sim::Params& p) {
      return std::make_unique<NaiveTreeCache>(
          tree, NaiveTreeCacheConfig{.alpha = p.alpha(),
                                     .capacity = p.capacity()});
    }};
}  // namespace

}  // namespace treecache
