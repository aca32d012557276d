// Common interface for online tree-caching algorithms.
#pragma once

#include <span>
#include <string_view>

#include "core/cost.hpp"
#include "core/request.hpp"
#include "tree/subforest.hpp"

namespace treecache {

/// What kind of cache change a round triggered.
enum class ChangeKind : std::uint8_t {
  kNone = 0,
  kFetch,         // a positive changeset was fetched
  kEvict,         // a negative changeset was evicted
  kPhaseRestart,  // a fetch would exceed capacity: cache emptied, new phase
};

/// Per-round result. `changed` points into an internal buffer of the
/// algorithm and is valid only until the next step()/reset() call.
struct StepOutcome {
  bool paid = false;                  // 1 was paid to serve the request
  ChangeKind change = ChangeKind::kNone;
  std::span<const NodeId> changed{};  // fetched or evicted nodes (per kind)
  // Nodes evicted in the same round to make room for a kFetch (used by
  // capacity-eviction baselines like LRU; TC never mixes directions in one
  // round). Applied before `changed` when replaying outcomes.
  std::span<const NodeId> also_evicted{};
  // For kPhaseRestart: the saturated fetch set that did not fit. The
  // paper's analysis treats it as an "artificial fetch" when measuring k_P
  // (Section 5); instrumentation uses it for field accounting.
  std::span<const NodeId> aborted_fetch{};

  [[nodiscard]] std::uint64_t service_cost() const { return paid ? 1 : 0; }
};

/// Receives the (request, outcome) pairs of a batched step in stream order.
/// Outcome spans obey the same lifetime rule as step()'s return value —
/// valid only until the next round is stepped — so a sink must consume them
/// immediately (aggregate, copy out), never store them.
class OutcomeSink {
 public:
  virtual ~OutcomeSink() = default;
  virtual void on_outcome(const Request& request,
                          const StepOutcome& outcome) = 0;
};

/// An online algorithm maintains a subforest cache and serves one request per
/// round, paying the bypassing-model costs. Implementations must keep
/// cache() a valid subforest after every step.
class OnlineAlgorithm {
 public:
  virtual ~OnlineAlgorithm() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Serves the round-t request and applies at most one cache change.
  virtual StepOutcome step(Request request) = 0;

  /// Serves a whole batch in stream order, handing each outcome to `sink`
  /// right after its round. A request that is not a packet is served as
  /// step() serves it (tests enforce this for every registered algorithm).
  /// A packet is the switch's lookup in this cache: a cached node is a hit,
  /// which steps nothing and hands the sink an unpaid StepOutcome{}; an
  /// uncached one is stepped as the positive request it is. Overrides must
  /// keep both rules; they exist so a run's hot path amortizes the virtual
  /// dispatch over a batch instead of paying it per round.
  virtual void step_batch(std::span<const Request> requests,
                          OutcomeSink& sink) {
    for (const Request& request : requests) {
      if (request.packet && cache().contains(request.node)) {
        sink.on_outcome(request, StepOutcome{});
      } else {
        sink.on_outcome(request, step(request));
      }
    }
  }

  /// Restores the initial (empty-cache) state and zeroes the cost.
  virtual void reset() = 0;

  [[nodiscard]] virtual const Subforest& cache() const = 0;
  [[nodiscard]] virtual const Cost& cost() const = 0;
};

}  // namespace treecache
