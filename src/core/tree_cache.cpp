#include "core/tree_cache.hpp"

#include <algorithm>
#include <memory>

#include "sim/registry.hpp"

namespace treecache {

TreeCache::TreeCache(const Tree& tree, TreeCacheConfig config)
    : tree_(&tree),
      config_(config),
      sizes_(tree.preorder_sizes().data()),
      cache_(tree),
      state_(tree.size()) {
  check_alpha(config_.alpha, tree.size());
  TC_CHECK(config_.capacity >= 1, "capacity must be at least 1");
  phases_.push_back(PhaseStats{.first_round = 1});
  // Per-instance scratch arena: sized once here so steady-state rounds do
  // no allocation.
  const std::size_t changeset_cap =
      std::min<std::size_t>(tree.size(), 2 * config_.capacity + 2);
  rank_changeset_.reserve(changeset_cap);
  changeset_.reserve(changeset_cap);
}

void TreeCache::reset() {
  cache_.clear();
  state_.reset();
  root_hints_.clear();
  cost_ = Cost{};
  round_ = 0;
  work_ = 0;
  phases_.clear();
  phases_.push_back(PhaseStats{.first_round = 1});
  rank_changeset_.clear();
  changeset_.clear();
  aborted_buf_.clear();
}

StepOutcome TreeCache::step(Request request) {
  TC_CHECK(request.node < tree_->size(), "request to node outside the tree");
  ++round_;
  // One NodeId → rank translation on entry; the whole round runs in rank
  // coordinates and translates back once when a changeset is exposed.
  const std::uint32_t rv = tree_->preorder_index(request.node);
  return request.sign == Sign::kPositive ? handle_positive(rv)
                                         : handle_negative(rv);
}

void TreeCache::step_batch(std::span<const Request> requests,
                           OutcomeSink& sink) {
  // TreeCache is final, so step() devirtualizes here: the batch pays one
  // virtual dispatch total instead of one per round, and step_batch ≡
  // step holds by construction. A cached packet is the switch's hit and
  // steps nothing (OnlineAlgorithm::step_batch).
  for (const Request& request : requests) {
    if (request.packet && cache_.contains(request.node)) {
      sink.on_outcome(request, StepOutcome{});
    } else {
      sink.on_outcome(request, step(request));
    }
  }
}

std::span<const NodeId> TreeCache::translate_changeset(
    std::vector<NodeId>& out) const {
  out.resize(rank_changeset_.size());
  for (std::size_t i = 0; i < rank_changeset_.size(); ++i) {
    out[i] = tree_->from_preorder(rank_changeset_[i]);
  }
  return out;
}

StepOutcome TreeCache::handle_positive(std::uint32_t rv) {
  // A cached node serves the request for free.
  if (cache_.contains_rank(rv)) return {};
  StepOutcome out;
  out.paid = true;
  ++cost_.service;
  state_.bump_counter(rv);

  // Every ancestor of a non-cached node is non-cached (the cache is
  // descendant-closed), so v lies in P_t(u) for each ancestor u, and every
  // valid positive changeset containing v equals such a P_t(u). One walk up
  // bumps cnt(P_t(u)) and tests the candidate at each level; the topmost
  // saturated one is a superset of every other, hence maximal (Section
  // 6.1), and is the one a root→v scan would find first.
  std::uint32_t top = kNoNode;  // rank of the topmost saturated candidate
  std::uint64_t top_psize = 0;
  // Theorem 6.1's counter takes the walk's levels plus the levels a root→v
  // scan visits down to the candidate (all of them when none saturates).
  std::uint32_t levels = 0;
  std::uint32_t scan = 0;
  for (std::uint32_t r = rv; r != kNoNode; r = tree_->preorder_parent(r)) {
    TC_DCHECK(!cache_.contains_rank(r),
              "ancestor of a non-cached node must be non-cached");
    NodeState::Record& pe = state_.pos(r);
    pe.value += 1;  // cnt(P_t(r))
    const std::uint64_t psize = sizes_[r] - pe.size;
    ++levels;
    ++scan;
    if (static_cast<std::uint64_t>(pe.value) >= psize * config_.alpha) {
      top = r;
      top_psize = psize;
      scan = 1;
    }
  }
  work_ += levels + scan;
  if (top == kNoNode) return out;

  TC_DCHECK(static_cast<std::uint64_t>(state_.pcnt(top)) ==
                top_psize * config_.alpha,
            "saturated changeset must be exactly saturated (Lemma 5.1)");
  if (cache_.size() + top_psize > config_.capacity) {
    collect_missing(top);
    translate_changeset(aborted_buf_);
    phase_restart(static_cast<std::uint32_t>(top_psize));
    out.change = ChangeKind::kPhaseRestart;
    out.aborted_fetch = aborted_buf_;
    out.changed = translate_changeset(changeset_);
  } else {
    const std::uint64_t cnt_x = collect_missing(top);
    TC_DCHECK(rank_changeset_.size() == top_psize, "P_t(u) size mismatch");
    apply_fetch(top, cnt_x);
    out.change = ChangeKind::kFetch;
    out.changed = translate_changeset(changeset_);
  }
  return out;
}

StepOutcome TreeCache::handle_negative(std::uint32_t rv) {
  // A non-cached node only lives at the controller: nothing to pay.
  if (!cache_.contains_rank(rv)) return {};
  StepOutcome out;
  out.paid = true;
  ++cost_.service;
  state_.bump_counter(rv);

  const std::uint32_t ru = propagate_negative_increment(rv);
  // val_t(H(u)) > 0  ⇔  I(u) >= 0: H(u) is saturated and maximal (§6.2).
  if (state_.neg(ru).value >= 0) {
    const std::uint64_t cnt_h = collect_h_set(ru);
    TC_DCHECK(cnt_h == state_.neg(ru).size * config_.alpha,
              "evicted H(u) must be exactly saturated");
    (void)cnt_h;
    apply_evict(ru);
    out.change = ChangeKind::kEvict;
    out.changed = translate_changeset(changeset_);
  }
  return out;
}

std::uint32_t TreeCache::propagate_negative_increment(std::uint32_t rv) {
  // The +1 to cnt(v) enters I(v) directly; above v it propagates through
  // the recursion I(p) = cnt(p) − α + Σ_{children w: I(w) ≥ 0} I(w).
  // On an increment a child's inclusion can only flip excluded→included
  // (exactly when its I reaches 0), so each level updates in O(1).
  std::int64_t old_i = state_.neg(rv).value;
  state_.neg(rv).value += 1;
  std::int64_t new_i = old_i + 1;
  std::int64_t d_size = 0;  // ΔS of the current child level
  std::uint32_t u = rv;
  while (true) {
    ++work_;
    const std::uint32_t p = tree_->preorder_parent(u);
    if (p == kNoNode || !cache_.contains_rank(p)) return u;
    const bool included_before = old_i >= 0;
    const bool included_after = new_i >= 0;
    if (!included_before && !included_after) {
      // Nothing changes higher up; just locate the cached-tree root.
      std::uint32_t r = p;
      while (true) {
        ++work_;
        const std::uint32_t q = tree_->preorder_parent(r);
        if (q == kNoNode || !cache_.contains_rank(q)) return r;
        r = q;
      }
    }
    TC_DCHECK(included_after, "inclusion cannot flip off on an increment");
    const std::int64_t d_i = new_i - (included_before ? old_i : 0);
    const std::int64_t d_s =
        included_before ? d_size
                        : static_cast<std::int64_t>(state_.neg(u).size);
    NodeState::Record& np = state_.neg(p);
    old_i = np.value;
    np.value += d_i;
    new_i = np.value;
    np.size =
        static_cast<std::uint32_t>(static_cast<std::int64_t>(np.size) + d_s);
    d_size = d_s;
    u = p;
  }
}

std::uint64_t TreeCache::collect_missing(std::uint32_t ru) {
  rank_changeset_.clear();
  // T(u) is the slice [ru, ru + |T(u)|); a cached node's subtree is fully
  // cached (descendant-closure), so the scan skips it as one jump.
  work_ += cache_.missing_ranks(ru, ru + sizes_[ru], rank_changeset_);
  std::uint64_t cnt_x = 0;
  for (const std::uint32_t r : rank_changeset_) cnt_x += state_.counter(r);
  return cnt_x;
}

std::uint64_t TreeCache::collect_h_set(std::uint32_t ru) {
  rank_changeset_.clear();
  // H(u) is u plus, per child w with I(w) ≥ 0, the set H(w): a node belongs
  // iff no strict ancestor inside T(u) has I < 0, so the scan skips a
  // subtree whose root has I < 0 as one contiguous jump.
  TC_DCHECK(cache_.contains_rank(ru), "H-set root must be cached");
  std::uint64_t cnt_h = 0;
  const std::uint32_t end = ru + sizes_[ru];
  for (std::uint32_t r = ru; r < end;) {
    ++work_;
    if (r != ru && state_.neg(r).value < 0) {
      r += sizes_[r];
      continue;
    }
    rank_changeset_.push_back(r);
    cnt_h += state_.counter(r);
    ++r;
  }
  return cnt_h;
}

void TreeCache::apply_fetch(std::uint32_t ru, std::uint64_t cnt_x) {
  const auto x_size = static_cast<std::uint32_t>(rank_changeset_.size());
  // rank_changeset_ is ascending (preorder); reversed iteration inserts
  // children before parents, which keeps the cache descendant-closed at
  // every step, and lets (I, S) be initialized bottom-up in the same pass:
  // each record's positive index and counter give way to (I, S) and a zero
  // counter. Child enumeration needs no adjacency: the first child of r is
  // r + 1, the next sibling of c is c + |T(c)|.
  for (auto it = rank_changeset_.rbegin(); it != rank_changeset_.rend();
       ++it) {
    const std::uint32_t r = *it;
    cache_.set_rank(r);
    std::int64_t i_value = -static_cast<std::int64_t>(config_.alpha);
    std::uint32_t s_value = 1;
    const std::uint32_t end = r + sizes_[r];
    for (std::uint32_t c = r + 1; c < end; c += sizes_[c]) {
      ++work_;
      const NodeState::Record& nc = state_.neg(c);
      if (nc.value >= 0) {
        i_value += nc.value;
        s_value += nc.size;
      }
    }
    state_.fetch(r, i_value, s_value);
    ++work_;
  }
  // Ancestors strictly above u stay non-cached; their candidate sets shrink
  // by X and lose the cnt_x counter mass that X carried. In their records,
  // value is cnt(P_t(a)) and size is cached_below.
  for (std::uint32_t a = tree_->preorder_parent(ru); a != kNoNode;
       a = tree_->preorder_parent(a)) {
    NodeState::Record& pe = state_.pos(a);
    pe.value -= static_cast<std::int64_t>(cnt_x);
    TC_DCHECK(pe.value >= 0, "cnt(P_t(a)) must stay non-negative");
    pe.size += x_size;
    ++work_;
  }
  root_hints_.push_back(ru);
  cost_.reorg += config_.alpha * x_size;
  phases_.back().fetches += x_size;
}

void TreeCache::apply_evict(std::uint32_t ru) {
  const auto x_size = static_cast<std::uint32_t>(rank_changeset_.size());
  // Top-down eviction (ascending rank) keeps descendant-closure. Evicted
  // nodes become the non-cached tops of their subtrees: P_t(x) is exactly
  // the evicted part of T(x), whose counters the evict resets, so
  // cnt(P_t(x)) = 0 and |P_t(x)| = |X ∩ T(x)|. rank_changeset_ is sorted
  // ascending, so X ∩ T(x) is the contiguous run of entries in
  // [x, x + |T(x)|) starting at x itself — a binary search away. Each node
  // counts twice into work_: its bit and its record.
  for (std::size_t i = 0; i < rank_changeset_.size(); ++i) {
    const std::uint32_t r = rank_changeset_[i];
    cache_.clear_rank(r);
    const std::uint32_t size = sizes_[r];
    const auto first =
        rank_changeset_.begin() + static_cast<std::ptrdiff_t>(i);
    const auto last = std::lower_bound(first, rank_changeset_.end(), r + size);
    state_.evict(r, size - static_cast<std::uint32_t>(last - first));
    work_ += 2;
  }
  // Cached children left under evicted nodes become maximal roots.
  for (const std::uint32_t r : rank_changeset_) {
    const std::uint32_t end = r + sizes_[r];
    for (std::uint32_t c = r + 1; c < end; c += sizes_[c]) {
      ++work_;
      if (cache_.contains_rank(c)) root_hints_.push_back(c);
    }
  }
  // Ancestors strictly above u: the evicted nodes join their P_t sets with
  // zero counters, so only the cached-node count changes.
  for (std::uint32_t a = tree_->preorder_parent(ru); a != kNoNode;
       a = tree_->preorder_parent(a)) {
    state_.pos(a).size -= x_size;  // cached_below
    ++work_;
  }
  cost_.reorg += config_.alpha * x_size;
  phases_.back().evictions += x_size;
}

void TreeCache::phase_restart(std::uint32_t aborted_fetch_size) {
  // Collect the whole cache: every entry of root_hints_ that is still a
  // maximal root owns a completely cached subtree T(r) — a contiguous rank
  // slice. Sorting dedups the hints and makes the collection (hence the
  // eviction below) globally ascending, i.e. top-down per subtree.
  std::sort(root_hints_.begin(), root_hints_.end());
  root_hints_.erase(std::unique(root_hints_.begin(), root_hints_.end()),
                    root_hints_.end());
  rank_changeset_.clear();
  for (const std::uint32_t r : root_hints_) {
    if (!cache_.contains_rank(r)) continue;  // stale hint (already evicted)
    const std::uint32_t p = tree_->preorder_parent(r);
    // A hint whose parent is cached is no longer a maximal root.
    if (p != kNoNode && cache_.contains_rank(p)) continue;
    const std::uint32_t end = r + sizes_[r];
    for (std::uint32_t x = r; x < end; ++x) rank_changeset_.push_back(x);
    work_ += end - r;
    // Clearing the slice here (instead of in a second pass) is safe: the
    // hints are ascending, so a hint nested inside this slice is visited
    // later and skipped as stale by the contains_rank(r) test above.
    // Clearing just the cached slices keeps the restart O(|cache|);
    // Subforest::clear() would touch all |T| bits.
    cache_.clear_slice(r, end);
  }
  root_hints_.clear();
  TC_DCHECK(cache_.empty(), "restart must evict the whole cache");
  const auto evicted = static_cast<std::uint32_t>(rank_changeset_.size());
  cost_.reorg += config_.alpha * evicted;

  PhaseStats& phase = phases_.back();
  phase.last_round = round_;
  phase.finished = true;
  // k_P counts the cache right after the "artificial fetch" of the set that
  // did not fit, before the final eviction (Section 5): k_P >= k_ONL + 1.
  phase.k_end = evicted + aborted_fetch_size;

  state_.new_phase();
  phases_.push_back(PhaseStats{.first_round = round_ + 1});
}

namespace {
const sim::AlgorithmRegistrar kRegisterTc{
    "tc", "the paper's O(h)-competitive counter algorithm (Section 3)",
    [](const Tree& tree, const sim::Params& p) {
      return std::make_unique<TreeCache>(
          tree,
          TreeCacheConfig{.alpha = p.alpha(), .capacity = p.capacity()});
    }};
}  // namespace

}  // namespace treecache
