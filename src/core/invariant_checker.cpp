#include "core/invariant_checker.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/changeset_enum.hpp"

namespace treecache {

SpecChecker::SpecChecker(const Tree& tree, std::uint64_t alpha,
                         std::size_t capacity,
                         std::size_t max_enum_candidates)
    : tree_(&tree),
      alpha_(alpha),
      capacity_(capacity),
      max_enum_candidates_(max_enum_candidates),
      mirror_(tree),
      cnt_(tree.size(), 0) {}

bool SpecChecker::enumeration_feasible() const {
  // Both the cached and the non-cached candidate sets must be enumerable.
  const std::size_t cached = mirror_.size();
  const std::size_t non_cached = tree_->size() - cached;
  return cached <= max_enum_candidates_ && non_cached <= max_enum_candidates_;
}

std::uint64_t SpecChecker::cnt_sum(std::span<const NodeId> nodes) const {
  std::uint64_t total = 0;
  for (const NodeId v : nodes) total += cnt_[v];
  return total;
}

void SpecChecker::check_single_tree_cap(
    std::span<const NodeId> changeset) const {
  std::unordered_set<NodeId> members(changeset.begin(), changeset.end());
  std::size_t roots = 0;
  for (const NodeId v : changeset) {
    const NodeId p = tree_->parent(v);
    if (p == kNoNode || !members.contains(p)) ++roots;
  }
  TC_CHECK(roots == 1,
           "applied changeset must be a single tree cap (Lemma 5.1(4))");
}

void SpecChecker::check_no_saturated_changeset(const char* when) const {
  // TC must act whenever a valid saturated changeset exists (a saturated
  // fetch that does not fit triggers a restart, never silence), and right
  // after an application nothing may be saturated (Lemma 5.1(3)). So in
  // both "no action" and "after application" states saturation must be
  // strictly absent.
  for (const auto& x : enumerate_positive_changesets(mirror_)) {
    TC_CHECK(cnt_sum(x) < x.size() * alpha_,
             std::string("saturated positive changeset exists ") + when);
  }
  for (const auto& x : enumerate_negative_changesets(mirror_)) {
    TC_CHECK(cnt_sum(x) < x.size() * alpha_,
             std::string("saturated negative changeset exists ") + when);
  }
}

void SpecChecker::check_superset_maximality(std::span<const NodeId> changeset,
                                            bool positive) const {
  std::vector<NodeId> sorted(changeset.begin(), changeset.end());
  std::sort(sorted.begin(), sorted.end());
  const auto all = positive ? enumerate_positive_changesets(mirror_)
                            : enumerate_negative_changesets(mirror_);
  for (const auto& y : all) {
    if (y.size() <= sorted.size()) continue;
    if (!std::includes(y.begin(), y.end(), sorted.begin(), sorted.end())) {
      continue;
    }
    TC_CHECK(cnt_sum(y) < y.size() * alpha_,
             "applied changeset not maximal: a saturated strict superset "
             "exists");
  }
}

void SpecChecker::observe(Request request, const StepOutcome& outcome) {
  ++round_;
  const NodeId v = request.node;
  TC_CHECK(v < tree_->size(), "request outside the tree");

  // 1. Service charge must follow the bypassing model.
  const bool should_pay = request.sign == Sign::kPositive
                              ? !mirror_.contains(v)
                              : mirror_.contains(v);
  TC_CHECK(outcome.paid == should_pay, "service charge mismatch");
  if (should_pay) ++cnt_[v];

  const bool exhaustive = enumeration_feasible();
  if (exhaustive) ++exhaustive_rounds_;

  switch (outcome.change) {
    case ChangeKind::kNone: {
      if (exhaustive) check_no_saturated_changeset("with no action taken");
      // TC must act whenever a *fitting* saturated changeset exists; a
      // saturated fetch that exceeds capacity triggers a restart instead,
      // so "no action" additionally implies no saturated set at all.
      break;
    }
    case ChangeKind::kFetch: {
      const auto x = outcome.changed;
      TC_CHECK(mirror_.is_valid_positive_changeset(x),
               "fetched set is not a valid positive changeset");
      TC_CHECK(std::find(x.begin(), x.end(), v) != x.end(),
               "fetched set must contain the requested node (Lemma 5.1(1))");
      TC_CHECK(cnt_sum(x) == x.size() * alpha_,
               "fetched set must be exactly saturated (Lemma 5.1(2))");
      check_single_tree_cap(x);
      TC_CHECK(mirror_.size() + x.size() <= capacity_,
               "fetch exceeds the capacity");
      if (exhaustive) check_superset_maximality(x, /*positive=*/true);
      // Apply bottom-up (deepest first).
      std::vector<NodeId> order(x.begin(), x.end());
      std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        return tree_->depth(a) > tree_->depth(b);
      });
      for (const NodeId u : order) {
        mirror_.insert(u);
        cnt_[u] = 0;
      }
      if (exhaustive) check_no_saturated_changeset("after application");
      break;
    }
    case ChangeKind::kEvict: {
      const auto x = outcome.changed;
      TC_CHECK(mirror_.is_valid_negative_changeset(x),
               "evicted set is not a valid negative changeset");
      TC_CHECK(std::find(x.begin(), x.end(), v) != x.end(),
               "evicted set must contain the requested node (Lemma 5.1(1))");
      TC_CHECK(cnt_sum(x) == x.size() * alpha_,
               "evicted set must be exactly saturated (Lemma 5.1(2))");
      check_single_tree_cap(x);
      if (exhaustive) check_superset_maximality(x, /*positive=*/false);
      std::vector<NodeId> order(x.begin(), x.end());
      std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        return tree_->depth(a) < tree_->depth(b);
      });
      for (const NodeId u : order) {
        mirror_.erase(u);
        cnt_[u] = 0;
      }
      if (exhaustive) check_no_saturated_changeset("after application");
      break;
    }
    case ChangeKind::kPhaseRestart: {
      const auto aborted = outcome.aborted_fetch;
      TC_CHECK(mirror_.is_valid_positive_changeset(aborted),
               "aborted fetch is not a valid positive changeset");
      TC_CHECK(cnt_sum(aborted) == aborted.size() * alpha_,
               "aborted fetch must be exactly saturated");
      TC_CHECK(mirror_.size() + aborted.size() > capacity_,
               "restart without a capacity violation");
      // The whole cache must be evicted.
      std::vector<NodeId> evicted(outcome.changed.begin(),
                                  outcome.changed.end());
      std::sort(evicted.begin(), evicted.end());
      const std::vector<NodeId> cached = mirror_.as_vector();
      TC_CHECK(evicted == cached, "restart must evict exactly the cache");
      mirror_.clear();
      std::fill(cnt_.begin(), cnt_.end(), std::uint64_t{0});  // new phase
      break;
    }
  }
  TC_CHECK(mirror_.is_valid(), "cache must remain a subforest");
}

}  // namespace treecache
