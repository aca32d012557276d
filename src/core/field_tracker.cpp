#include "core/field_tracker.hpp"

#include <algorithm>

namespace treecache {

FieldTracker::FieldTracker(const Tree& tree, std::uint64_t alpha)
    : tree_(&tree),
      alpha_(alpha),
      window_(tree.size(), 0),
      last_change_(tree.size(), 0) {
  TC_CHECK(alpha_ >= 1, "alpha must be positive");
}

void FieldTracker::observe(Request request, const StepOutcome& outcome) {
  TC_CHECK(!finalized_, "observe() after finalize()");
  ++round_;
  const NodeId v = request.node;
  if (outcome.paid) {
    window_.add(v, 1);
    ++total_window_;
    paid_log_.push_back(LoggedRequest{round_, v, request.sign});
    ++phase_cost_;
  }
  phase_cost_ += alpha_ * outcome.changed.size();

  switch (outcome.change) {
    case ChangeKind::kNone:
      break;
    case ChangeKind::kFetch:
      close_field(outcome.changed, ChangeKind::kFetch, /*artificial=*/false);
      cached_count_ += outcome.changed.size();
      break;
    case ChangeKind::kEvict:
      close_field(outcome.changed, ChangeKind::kEvict, /*artificial=*/false);
      cached_count_ -= outcome.changed.size();
      break;
    case ChangeKind::kPhaseRestart: {
      // The analysis treats the fetch that did not fit as performed at
      // end(P) (an "artificial" field) and then evicts everything; the
      // final eviction creates no field — the slots before it are F∞.
      close_field(outcome.aborted_fetch, ChangeKind::kFetch,
                  /*artificial=*/true);
      const std::uint64_t k_end =
          outcome.changed.size() + outcome.aborted_fetch.size();
      close_phase(/*finished=*/true, k_end);
      cached_count_ = 0;
      break;
    }
  }
}

void FieldTracker::close_field(std::span<const NodeId> nodes, ChangeKind kind,
                               bool artificial) {
  Field field;
  field.end_round = round_;
  field.kind = kind;
  field.artificial = artificial;
  field.members.reserve(nodes.size());
  for (const NodeId v : nodes) {
    const std::uint64_t last = std::max(last_change_.get(v), phase_begin_);
    field.members.push_back(FieldMember{v, last + 1, window_.get(v)});
    field.requests += window_.get(v);
  }
  // Observation 5.2: the triggering requests sum to exactly size·α.
  TC_CHECK(field.requests == nodes.size() * alpha_,
           "Observation 5.2 violated: req(F) != size(F)*alpha");
  total_window_ -= field.requests;
  for (const NodeId v : nodes) {
    window_.set(v, 0);
    last_change_.set(v, round_);
  }
  if (field.positive()) {
    p_out_ += nodes.size();
  } else {
    p_in_ += nodes.size();
  }
  sum_sizes_ += nodes.size();
  ++field_count_;
  fields_.push_back(std::move(field));
}

void FieldTracker::close_phase(bool finished, std::uint64_t k_end) {
  PhaseFieldSummary summary;
  summary.first_round = phase_begin_ + 1;
  summary.last_round = round_;
  summary.finished = finished;
  summary.p_in = p_in_;
  summary.p_out = p_out_;
  summary.k_end = k_end;
  summary.open_field_requests = total_window_;
  summary.field_count = field_count_;
  summary.sum_field_sizes = sum_sizes_;
  summary.tc_cost = phase_cost_;
  phases_.push_back(summary);

  p_in_ = p_out_ = 0;
  sum_sizes_ = 0;
  field_count_ = 0;
  total_window_ = 0;
  phase_cost_ = 0;
  window_.reset_all();
  last_change_.reset_all();
  phase_begin_ = round_;
}

void FieldTracker::finalize() {
  TC_CHECK(!finalized_, "finalize() called twice");
  close_phase(/*finished=*/false, cached_count_);
  finalized_ = true;
}

void FieldTracker::verify_period_accounting() const {
  TC_CHECK(finalized_, "finalize() first");
  for (const PhaseFieldSummary& phase : phases_) {
    TC_CHECK(phase.p_out == phase.p_in + phase.k_end,
             "period accounting violated: p_out != p_in + k_P");
  }
}

void FieldTracker::verify_lemma_5_3(std::uint64_t alpha) const {
  TC_CHECK(finalized_, "finalize() first");
  for (const PhaseFieldSummary& phase : phases_) {
    const std::uint64_t bound = 2 * alpha * phase.sum_field_sizes +
                                phase.open_field_requests +
                                phase.k_end * alpha;
    TC_CHECK(phase.tc_cost <= bound,
             "Lemma 5.3 violated: TC(P) exceeds the field bound");
  }
}

std::vector<FieldTracker::Slot> FieldTracker::field_slots(
    const Field& field) const {
  // Member windows are disjoint across fields for the same node, so a
  // simple filter over the paid-request log reconstructs the field.
  std::vector<Slot> slots;
  slots.reserve(field.requests);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> window(
      tree_->size(), {1, 0});  // empty window by default
  for (const FieldMember& m : field.members) {
    window[m.node] = {m.from_round, field.end_round};
  }
  for (const LoggedRequest& req : paid_log_) {
    const auto [lo, hi] = window[req.node];
    if (req.round >= lo && req.round <= hi) {
      slots.push_back(Slot{req.node, req.round});
    }
  }
  TC_CHECK(slots.size() == field.requests,
           "reconstructed slots disagree with the field's request count");
  return slots;
}

std::string FieldTracker::render_event_space(std::uint64_t max_rounds) const {
  const std::uint64_t rounds = std::min<std::uint64_t>(round_, max_rounds);
  const std::size_t n = tree_->size();

  // Row order: root on top, extending the tree partial order (by depth,
  // ties by preorder position).
  const auto preorder = tree_->preorder();
  std::vector<NodeId> order(preorder.begin(), preorder.end());
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return tree_->depth(a) < tree_->depth(b);
  });
  std::vector<std::size_t> row_of(n);
  for (std::size_t i = 0; i < order.size(); ++i) row_of[order[i]] = i;

  std::vector<std::string> grid(n, std::string(rounds, '.'));
  // Paint field windows first, then overlay the requests.
  for (std::size_t f = 0; f < fields_.size(); ++f) {
    const char tag = fields_[f].artificial
                         ? '*'
                         : static_cast<char>('A' + static_cast<char>(f % 26));
    for (const FieldMember& m : fields_[f].members) {
      const std::uint64_t hi = std::min(fields_[f].end_round, rounds);
      for (std::uint64_t r = m.from_round; r <= hi; ++r) {
        grid[row_of[m.node]][r - 1] = tag;
      }
    }
  }
  for (const LoggedRequest& req : paid_log_) {
    if (req.round > rounds) continue;
    grid[row_of[req.node]][req.round - 1] =
        req.sign == Sign::kPositive ? '+' : '-';
  }

  std::string out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::string label = "node " + std::to_string(order[i]);
    label.resize(10, ' ');
    out += label + "|" + grid[i] + "|\n";
  }
  return out;
}

}  // namespace treecache
