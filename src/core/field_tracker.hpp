// Event-space instrumentation: fields, the open field F∞, and in/out
// periods (Section 5.1–5.2 of the paper).
//
// The analysis partitions the (node × round) event space of a phase into
// fields: the field F^t of a changeset X_t applied at time t contains, for
// every v ∈ X_t, the slots from v's previous state change to t. The tracker
// rebuilds this partition from the observed (request, outcome) stream and
// checks the accounting facts the proof rests on:
//
//   * Observation 5.2:  req(F) = size(F)·α for every field;
//   * Figure 3 / Lemma 5.11 accounting:  p_out = p_in + k_P per phase;
//   * Lemma 5.3:  TC(P) ≤ 2α·size(F) + req(F∞) + k_P·α.
//
// It also renders the Figure-2-style ASCII picture of the event space.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/epoch_array.hpp"
#include "core/online_algorithm.hpp"
#include "tree/tree.hpp"

namespace treecache {

/// One member (node) of a field with the first round of its window.
struct FieldMember {
  NodeId node;
  std::uint64_t from_round;  // window is [from_round, end_round]
  std::uint64_t requests;    // paid requests at this node inside the window
};

/// A field of the event-space partition.
struct Field {
  std::uint64_t end_round = 0;
  ChangeKind kind = ChangeKind::kNone;  // kFetch (positive) or kEvict
  bool artificial = false;  // the abandoned fetch closing a finished phase
  std::vector<FieldMember> members;
  std::uint64_t requests = 0;  // paid requests inside the field

  [[nodiscard]] std::size_t size() const { return members.size(); }
  [[nodiscard]] bool positive() const { return kind == ChangeKind::kFetch; }
};

/// Per-phase accounting summary.
struct PhaseFieldSummary {
  std::uint64_t first_round = 1;
  std::uint64_t last_round = 0;
  bool finished = false;
  std::uint64_t p_in = 0;    // # in periods  (members of negative fields)
  std::uint64_t p_out = 0;   // # out periods (members of positive fields)
  std::uint64_t k_end = 0;   // k_P (includes the artificial fetch)
  std::uint64_t open_field_requests = 0;  // req(F∞)
  std::uint64_t field_count = 0;
  std::uint64_t sum_field_sizes = 0;  // size(F)
  std::uint64_t tc_cost = 0;          // TC(P): service + reorganization
};

class FieldTracker {
 public:
  FieldTracker(const Tree& tree, std::uint64_t alpha);

  /// Feed round t's request and the algorithm's outcome, in order.
  /// Throws CheckFailure if Observation 5.2 fails for a closed field.
  void observe(Request request, const StepOutcome& outcome);

  /// Closes the open (unfinished) phase summary. Call once after the trace.
  void finalize();

  [[nodiscard]] const std::vector<Field>& fields() const { return fields_; }
  [[nodiscard]] const std::vector<PhaseFieldSummary>& phases() const {
    return phases_;
  }

  /// Verifies p_out == p_in + k_P for every closed phase (throws on
  /// failure). Valid after finalize().
  void verify_period_accounting() const;

  /// Verifies Lemma 5.3 for every closed phase (throws on failure).
  void verify_lemma_5_3(std::uint64_t alpha) const;

  /// ASCII event-space rendering (Figure 2): one row per node (root on
  /// top, order extends the tree partial order), one column per round.
  /// Fields are letters, paid requests are '+'/'-', empty slots '.'.
  [[nodiscard]] std::string render_event_space(
      std::uint64_t max_rounds = 160) const;

  /// The paid requests occupying a field's slots, as (node, round) pairs in
  /// round order. |result| == field.requests (Observation 5.2). Used by the
  /// shifting machinery of analysis/shifting.hpp.
  struct Slot {
    NodeId node;
    std::uint64_t round;
  };
  [[nodiscard]] std::vector<Slot> field_slots(const Field& field) const;

 private:
  void close_field(std::span<const NodeId> nodes, ChangeKind kind,
                   bool artificial);
  void close_phase(bool finished, std::uint64_t k_end);

  const Tree* tree_;
  std::uint64_t alpha_;

  std::uint64_t round_ = 0;
  std::uint64_t phase_begin_ = 0;  // begin(P): rounds of P are > phase_begin_
  std::uint64_t total_window_ = 0;
  std::size_t cached_count_ = 0;

  EpochArray<std::uint64_t> window_;       // paid requests since last change
  EpochArray<std::uint64_t> last_change_;  // round of last state change

  std::uint64_t p_in_ = 0;
  std::uint64_t p_out_ = 0;
  std::uint64_t sum_sizes_ = 0;
  std::uint64_t field_count_ = 0;
  std::uint64_t phase_cost_ = 0;

  std::vector<Field> fields_;
  std::vector<PhaseFieldSummary> phases_;

  struct LoggedRequest {
    std::uint64_t round;
    NodeId node;
    Sign sign;
  };
  std::vector<LoggedRequest> paid_log_;
  bool finalized_ = false;
};

}  // namespace treecache
