// Pull-based request streams — the input side of the online problem.
//
// A RequestSource produces the request sequence one round at a time, so a
// driver can run billion-request experiments in O(1) memory instead of
// materializing a Trace up front. Sources come in two flavours:
//
//   open loop    the stream is fixed in advance (trace files, random
//                generators, combinators over them). Feedback is ignored.
//   closed loop  the next request depends on how the algorithm reacted —
//                e.g. the FIB router source only emits a request when a
//                packet misses the switch cache. Such sources rebuild the
//                cache state they need from the StepOutcome feedback the
//                driver hands to observe_batch() after stepping.
//
// The driver contract (sim::run_source) is strict alternation per batch:
//   n = source.fill(buffer)       // n requests that do NOT depend on
//                                 // outcomes the source has not seen yet
//   step the n requests           // alg.step / step_batch
//   source.observe_batch(...)     // the n outcomes, in stream order,
//                                 // delivered before the next fill()
// fill() returning 0 ends the run. A closed-loop source must therefore
// only batch requests whose values are already determined (e.g. the
// remainder of an α-chunk) and return before generating an event that
// reads its mirrored cache state. The feedback granularity is free: the
// driver may deliver the n outcomes as one batch or as n batches of one
// (sim::AccountingSink does the latter) — a source must not care, which
// is why observe_batch is the ONLY feedback virtual and observe() is a
// non-virtual convenience forwarding a single outcome through it.
//
// next() is a convenience wrapper over fill() for one-request-at-a-time
// consumers; implementations only ever override fill(), which amortizes
// the virtual dispatch over whole batches on the hot path.
#pragma once

#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/online_algorithm.hpp"
#include "core/trace.hpp"

namespace treecache::engine {
class ShardPlan;  // engine/shard_plan.hpp
}  // namespace treecache::engine

namespace treecache {

/// How RequestSource::split produced its per-shard parts — queryable so a
/// caller can tell a genuine shared-generation split from the generic
/// fork-per-shard replay, which regenerates the FULL stream once per shard.
enum class SplitKind : std::uint8_t {
  /// split() returns empty: the source only runs single-shard.
  kUnsplittable,
  /// Each part independently replays the whole stream behind a filter
  /// (the default fork()-based split, open loops only): a per-shard
  /// reference replay whose generation cost scales with the shard count.
  kReplicated,
  /// The parts share one generation pass over the stream (e.g. the FIB
  /// router's producer-fed mirrors); see the kShared contract on split().
  kShared,
};

class RequestSource {
 public:
  virtual ~RequestSource() = default;

  /// Writes up to buffer.size() upcoming requests into `buffer` and returns
  /// how many were produced. 0 means the stream is exhausted (and every
  /// later call must keep returning 0 until reset()). A closed-loop source
  /// must only return requests that do not depend on outcomes it has not
  /// observed yet — returning less than a full buffer is always legal.
  [[nodiscard]] virtual std::size_t fill(std::span<Request> buffer) = 0;

  /// Rewinds to the first request: the source replays the identical stream
  /// (closed-loop sources additionally forget all observed feedback).
  virtual void reset() = 0;

  /// Exact number of requests remaining, when the source can know it
  /// without running ahead (trace files and feedback-dependent streams
  /// return nullopt). Used to pre-size buffers, never for termination.
  [[nodiscard]] virtual std::optional<std::uint64_t> size_hint() const {
    return std::nullopt;
  }

  /// THE feedback virtual — the one customization point on the feedback
  /// hot path. The driver hands over stepped outcomes in stream order,
  /// chunked at its convenience (a whole step_batch chunk, or one at a
  /// time via observe() below), always before the fill() that could
  /// depend on them. The outcomes' spans are only valid for the duration
  /// of the call. Open-loop sources ignore it (the default).
  virtual void observe_batch(std::span<const StepOutcome> /*outcomes*/) {}

  /// Single-outcome convenience over observe_batch — a thin non-virtual
  /// forwarder kept for per-round drivers and tests. Do NOT override (it
  /// is not virtual any more): implement observe_batch instead.
  void observe(const StepOutcome& outcome) {
    observe_batch(std::span<const StepOutcome>(&outcome, 1));
  }

  /// True when the stream depends on observe_batch() feedback. Drivers
  /// that cannot deliver outcomes in global stream order (the sharded
  /// engine with more than one shard) must run such a source through
  /// split(): each per-shard mirror then receives its own outcomes in
  /// per-shard order. A closed-loop source that cannot split is refused.
  [[nodiscard]] virtual bool is_closed_loop() const { return false; }

  /// A fresh instance that replays this source's stream from the very
  /// beginning (independent of how far `this` has been consumed), or
  /// nullptr when the source cannot duplicate itself. The default split()
  /// below is built on this hook. Sharding an open loop does not need it:
  /// the engine's demux reads the stream through fill() alone.
  [[nodiscard]] virtual std::unique_ptr<RequestSource> fork() const {
    return nullptr;
  }

  /// Splits the stream into one source per shard of `plan` (which must
  /// outlive the returned sources). Shard s's source emits exactly the
  /// subsequence of this stream owned by shard s — in order, and remapped
  /// into shard-LOCAL node ids (ShardPlan::to_local) — always replaying
  /// from the start of the stream. Concatenating the per-shard streams
  /// therefore yields a permutation of the unsharded stream (a stable
  /// partition), and reset() on a part replays it identically.
  ///
  /// Open-loop sources split generically via fork(): each shard gets an
  /// independent replay of the whole stream behind a filter, so no state
  /// is shared between the parts and they may be consumed from different
  /// threads (SplitKind::kReplicated — generation cost scales with the
  /// shard count). The engine never splits an open loop (its demux routes
  /// one pass over the stream); this replay is a per-shard reference for
  /// benchmarks and tests that step one shard's subsequence on its own.
  /// Closed-loop sources must override this with genuine per-shard
  /// mirrors (e.g. fib::RouterSource, whose mirrors share one event
  /// producer — SplitKind::kShared) whose observe_batch() accepts
  /// shard-local outcomes; the default refuses them. An empty result
  /// means "cannot split".
  ///
  /// Shared-generation contract (kShared): the parts pull events from one
  /// producer that serializes generation. Each part is driven by one
  /// thread at a time; siblings may run on different threads (the
  /// engine's run_split drives each on the worker that owns its shard).
  /// All parts are reset together while none runs: reset() on any part
  /// rewinds the shared stream, so resetting one part mid-run invalidates
  /// its siblings.
  [[nodiscard]] virtual std::vector<std::unique_ptr<RequestSource>> split(
      const engine::ShardPlan& plan) const;

  /// What kind of parts split() would produce (advisory, not a
  /// correctness contract — e.g. a decorator uses it to split the way its
  /// inner source would). The default matches the generic split() above:
  /// open-loop sources replicate via fork(), closed-loop sources cannot
  /// split. Sources overriding split() should override this to match.
  [[nodiscard]] virtual SplitKind split_kind() const {
    return is_closed_loop() ? SplitKind::kUnsplittable
                            : SplitKind::kReplicated;
  }

  /// Single-request convenience over fill().
  [[nodiscard]] std::optional<Request> next() {
    Request r;
    return fill({&r, 1}) == 1 ? std::optional<Request>(r) : std::nullopt;
  }
};

/// Open-loop per-shard reference replay, the part type of the default
/// RequestSource::split: owns an independent replay of the whole stream
/// and keeps only the requests owned by one shard, remapped to shard-local
/// ids. `plan` must outlive the source.
class ShardFilterSource final : public RequestSource {
 public:
  ShardFilterSource(std::unique_ptr<RequestSource> inner,
                    const engine::ShardPlan& plan, std::size_t shard);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::unique_ptr<RequestSource> fork() const override;

 private:
  std::unique_ptr<RequestSource> inner_;
  const engine::ShardPlan* plan_;
  std::size_t shard_;
  std::vector<Request> scratch_;
};

/// Adapts an in-memory request sequence (owning a Trace, or borrowing a
/// span whose storage must outlive the source).
class TraceSource final : public RequestSource {
 public:
  explicit TraceSource(Trace trace)
      : owned_(std::move(trace)), view_(owned_) {}
  explicit TraceSource(std::span<const Request> view) : view_(view) {}

  TraceSource(const TraceSource&) = delete;
  TraceSource& operator=(const TraceSource&) = delete;

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override { position_ = 0; }
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return view_.size() - position_;
  }
  /// An owning source copies its trace; a borrowing one borrows the same
  /// storage (which must then outlive the fork too).
  [[nodiscard]] std::unique_ptr<RequestSource> fork() const override;

 private:
  Trace owned_;
  std::span<const Request> view_;
  std::size_t position_ = 0;
};

/// Streams a save_trace-format file from disk without slurping it, so
/// `treecache run --trace` handles traces far larger than memory. Parse
/// errors carry the 1-based line number (see parse_request_line).
class FileTraceSource final : public RequestSource {
 public:
  /// Opens `path`; throws CheckFailure if it cannot be opened. Requests to
  /// nodes >= tree_size are rejected while streaming.
  FileTraceSource(std::string path, std::size_t tree_size);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<RequestSource> fork() const override {
    return std::make_unique<FileTraceSource>(path_, tree_size_);
  }

 private:
  std::string path_;
  std::size_t tree_size_;
  std::ifstream in_;
  std::size_t line_number_ = 0;
};

inline constexpr std::size_t kMaterializeAll =
    std::numeric_limits<std::size_t>::max();

/// Drains up to `max_requests` requests into a Trace — the bridge from the
/// streaming world to offline evaluators, trace files and span-based tests.
[[nodiscard]] Trace materialize(RequestSource& source,
                                std::size_t max_requests = kMaterializeAll);

}  // namespace treecache
