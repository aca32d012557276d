// Pull-based request streams — the input side of the online problem.
//
// A RequestSource produces the request sequence one round at a time, so a
// driver can run billion-request experiments in O(1) memory instead of
// materializing a Trace up front. Sources come in two flavours:
//
//   open loop    the stream is fixed in advance (trace files, random
//                generators, combinators over them), read through fill()
//                alone: no outcome is handed back. sim::run_source runs
//                one unsharded, and engine::ShardedEngine::run demuxes one
//                over its shards.
//   closed loop  the source reads how the algorithm reacted — e.g. a FIB
//                router mirror emits every packet as a packet request,
//                which the instance's step_batch answers from its own
//                cache, and counts its hits and misses from the
//                StepOutcome feedback handed to observe_batch() after
//                stepping. Closed loops run through
//                ShardedEngine::run_split, one per shard (one shard
//                included); sim::run_source and ShardedEngine::run refuse
//                them.
//
// The closed-loop contract (each run_split shard) is strict alternation
// per batch:
//   n = source.fill(buffer)       // n requests that do NOT depend on
//                                 // outcomes the source has not seen yet
//   step the n requests           // alg.step_batch
//   source.observe_batch(...)     // the n outcomes, in stream order,
//                                 // delivered before the next fill()
// fill() returning 0 ends the run. A closed-loop source must therefore
// only batch requests whose values are already determined; the router's
// are (the switch lookup happens in step_batch), so its fills end at no
// miss. The feedback granularity is free: run_split may deliver the n
// outcomes as one batch or as n batches of one (sim::AccountingSink does
// the latter) — a source must not care, which is why observe_batch is the
// ONLY feedback virtual and observe() is a non-virtual convenience
// forwarding a single outcome through it.
//
// A source implements fill() and reset(); everything else has a default.
// size_hint(), fork(), split() and split_kind() stay virtual because the
// benchmark's tracing decorator (perfbench/tracing.hpp) forwards them:
// no source in src/ overrides size_hint(), and only the uniform and Zipf
// generators fork.
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

/// What RequestSource::split would produce — advisory, so a decorator can
/// split the way its inner source would.
enum class SplitKind : std::uint8_t {
  /// split() returns empty: a closed loop without a split() override.
  kUnsplittable,
  /// Each part independently replays the whole stream through fork()
  /// behind a filter (the default split()): a per-shard reference replay
  /// whose generation cost scales with the shard count. The replay is
  /// empty for a source that cannot fork.
  kReplicated,
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

  /// Exact number of requests remaining, when known. No source here
  /// overrides it (every one returns nullopt); it stays virtual for the
  /// benchmark's tracing decorator, which forwards it.
  [[nodiscard]] virtual std::optional<std::uint64_t> size_hint() const {
    return std::nullopt;
  }

  /// THE feedback virtual — the one customization point on the feedback
  /// hot path. run_split hands a closed loop its stepped outcomes in
  /// stream order, chunked at its convenience (a whole step_batch chunk,
  /// or one at a time via observe() below), always before the fill() that
  /// could depend on them. The outcomes' spans are only valid for the
  /// duration of the call. Neither sim::run_source nor the engine's demux
  /// calls it on an open loop; the default ignores the outcomes.
  virtual void observe_batch(std::span<const StepOutcome> /*outcomes*/) {}

  /// Single-outcome convenience over observe_batch — a thin non-virtual
  /// forwarder kept for per-round drivers and tests. Do NOT override (it
  /// is not virtual any more): implement observe_batch instead.
  void observe(const StepOutcome& outcome) {
    observe_batch(std::span<const StepOutcome>(&outcome, 1));
  }

  /// True when the stream depends on observe_batch() feedback. Such a
  /// source runs only on ShardedEngine::run_split, one per shard, where
  /// each receives its own shard's outcomes in per-shard order;
  /// sim::run_source and ShardedEngine::run refuse it.
  [[nodiscard]] virtual bool is_closed_loop() const { return false; }

  /// A fresh instance that replays this source's stream from the very
  /// beginning (independent of how far `this` has been consumed), or
  /// nullptr when the source cannot duplicate itself (the default). The
  /// default split() below is built on this hook; the engine never calls
  /// it.
  [[nodiscard]] virtual std::unique_ptr<RequestSource> fork() const {
    return nullptr;
  }

  /// Splits the stream into one source per shard of `plan` (which must
  /// outlive the returned sources). Shard s's source emits exactly the
  /// subsequence of this stream owned by shard s — in order, and remapped
  /// into shard-LOCAL node ids (ShardPlan::to_local) — always replaying
  /// from the start of the stream, so reset() on a part replays it
  /// identically. An empty result means "cannot split".
  ///
  /// The default replays the whole stream once per shard through fork(),
  /// behind a filter (SplitKind::kReplicated): no state is shared between
  /// the parts, so they may be consumed from different threads. It is
  /// empty for a closed loop and for a source that cannot fork. The engine
  /// never splits an open loop (its demux routes one pass over the
  /// stream); this replay is a per-shard reference for benchmarks that
  /// step one shard's subsequence on its own. A sharded closed loop is
  /// built as per-shard mirrors from the start instead, whose
  /// observe_batch() accepts shard-local outcomes (fib::RouterSource).
  [[nodiscard]] virtual std::vector<std::unique_ptr<RequestSource>> split(
      const engine::ShardPlan& plan) const;

  /// What kind of parts split() would produce. Advisory, not a
  /// correctness contract: kReplicated promises only that split() replays
  /// through fork(), which yields nothing for a source that cannot fork.
  /// Sources overriding split() should override this to match.
  [[nodiscard]] virtual SplitKind split_kind() const {
    return is_closed_loop() ? SplitKind::kUnsplittable
                            : SplitKind::kReplicated;
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
