// Span recording and the traced RequestSource decorator of the benchmark.
//
// Tracing lives entirely in the benchmark: it wraps the calls the benchmark
// makes into each layer's public functions, and never edits the library.
// Spans are per batch (a fill(), an observe_batch(), a step_batch chunk, a
// set-up step), never per request. Each span records its name, start, end,
// parent span, thread and batch id; spans stay in memory (per-thread
// buffers, capped) and are written at exit as Chrome trace-event JSON, the
// format Perfetto and chrome://tracing open directly.
//
// TracedSource wraps the RequestSource interface — fill, observe_batch,
// fork, and split, which wraps every part it returns — so spans and counts
// also reach the parts the sharded engine drives on its worker threads.
// Counters (batch sizes, requests, nanoseconds inside the calls) are kept
// per wrapper in a SourceStats collector that outlives the wrappers; the
// per-layer metrics are ratios of those counters.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/request_source.hpp"

namespace perfbench {

/// Nanoseconds on the steady clock (the epoch is irrelevant: only
/// differences and the trace's relative timestamps are used).
[[nodiscard]] std::uint64_t now_ns();

/// Process-wide span sink. Disabled (every call a cheap no-op) until
/// enable() — the untraced run never pays for it.
class Tracer {
 public:
  /// Turns recording on and keeps at most `more_spans` further spans; the
  /// rest are counted as dropped, so a long closed loop cannot exhaust
  /// memory and one phase of a run cannot crowd out the next.
  static void enable(std::size_t more_spans);
  [[nodiscard]] static bool enabled();

  /// Records a span with no children. Its parent is the calling thread's
  /// innermost open ScopedSpan, or the cross-thread root when none is open
  /// (so worker-thread batches hang under the benchmark's run span).
  static void record(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t batch = 0);

  /// Parent for spans recorded on threads with no open span of their own.
  static void set_root(std::uint32_t id);

  /// A stable copy of `name` for span names built at run time.
  [[nodiscard]] static const char* intern(const std::string& name);

  /// Writes every recorded span as Chrome trace-event JSON; false on I/O
  /// failure.
  static bool write_chrome_json(const std::string& path);
  [[nodiscard]] static std::uint64_t recorded();
  [[nodiscard]] static std::uint64_t dropped();
};

/// RAII span over a scope (a batch call, a set-up step, a whole run).
/// Spans opened inside it on the same thread become its children. The
/// start time is taken even with tracing off, so callers can reuse it for
/// their own counters.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t batch = 0);
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now (idempotent) and returns the end timestamp.
  std::uint64_t close();

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] std::uint64_t start() const { return start_; }

 private:
  const char* name_;
  std::uint64_t batch_;
  std::uint64_t start_;
  std::uint64_t end_ = 0;
  std::uint32_t id_ = 0;         // 0 while tracing is off
  std::uint32_t parent_ = 0;
  std::uint32_t enclosing_ = 0;  // this thread's open span before ours
};

/// Suspends span recording for a scope; decorator counters keep counting.
class TracerPause {
 public:
  TracerPause();
  ~TracerPause();
  TracerPause(const TracerPause&) = delete;
  TracerPause& operator=(const TracerPause&) = delete;

 private:
  bool was_enabled_;
};

/// Where a wrapper sits in the tree of sources a run consumes.
enum class SourceRole : std::uint8_t {
  kRoot,  // the source handed to run_source or the engine
  kFork,  // a fork(): an independent replay feeding a replicated part
  kPart,  // one per-shard part returned by split()
};

/// Counters of one wrapper. Written only by the thread driving that
/// wrapper; read after the run has joined every worker.
struct SourceCounters {
  SourceRole role = SourceRole::kRoot;
  std::size_t shard = 0;
  std::uint64_t fill_calls = 0;
  std::uint64_t requests = 0;
  std::uint64_t fill_ns = 0;
  std::uint64_t observe_calls = 0;
  std::uint64_t outcomes = 0;
  std::uint64_t observe_ns = 0;
  /// Time inside this wrapper's calls spent on the run's caller thread.
  std::uint64_t caller_ns = 0;
  /// Delivered requests, kept only when SourceStats::record is set.
  std::vector<treecache::Request> recorded;
};

/// Collector for every wrapper made from one root (forks and parts
/// included). The thread that constructs it is the run's caller thread.
/// Wrappers are created on that thread (split and fork run there), but the
/// mutex keeps registration safe regardless.
class SourceStats {
 public:
  /// `layer` names the spans: "<layer>.fill", "<layer>.observe", ...
  explicit SourceStats(const char* layer, bool record = false);

  SourceCounters& add(SourceRole role, std::size_t shard);

  [[nodiscard]] const std::deque<SourceCounters>& all() const {
    return counters_;
  }
  [[nodiscard]] bool on_caller() const {
    return std::this_thread::get_id() == caller_;
  }
  [[nodiscard]] bool record() const { return record_; }

  const char* fill_name;
  const char* observe_name;
  const char* generate_name;
  const char* split_name;

 private:
  std::mutex mutex_;
  std::deque<SourceCounters> counters_;  // stable addresses
  std::thread::id caller_;
  bool record_;
};

/// The decorator. Forwards every RequestSource call to `inner`, timing
/// fill/observe_batch per batch into its SourceCounters and the tracer.
class TracedSource final : public treecache::RequestSource {
 public:
  /// Owns `inner` (forks and split parts).
  TracedSource(std::unique_ptr<treecache::RequestSource> inner,
               SourceStats& stats, SourceRole role, std::size_t shard);
  /// Borrows `inner`, which must outlive the wrapper (the benchmark's
  /// long-lived sources, wrapped afresh for each traced run).
  TracedSource(treecache::RequestSource& inner, SourceStats& stats,
               SourceRole role, std::size_t shard);

  [[nodiscard]] std::size_t fill(std::span<treecache::Request> buffer) override;
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return inner_->size_hint();
  }
  void observe_batch(
      std::span<const treecache::StepOutcome> outcomes) override;
  [[nodiscard]] bool is_closed_loop() const override {
    return inner_->is_closed_loop();
  }
  [[nodiscard]] std::unique_ptr<treecache::RequestSource> fork()
      const override;
  /// A replicated split is rebuilt here on top of this wrapper's fork(),
  /// so the generation inside every part is traced as well; any other
  /// split is the inner source's own. Either way each part is wrapped.
  [[nodiscard]] std::vector<std::unique_ptr<treecache::RequestSource>> split(
      const treecache::engine::ShardPlan& plan) const override;
  [[nodiscard]] treecache::SplitKind split_kind() const override {
    return inner_->split_kind();
  }

 private:
  std::unique_ptr<treecache::RequestSource> owned_;  // null when borrowing
  treecache::RequestSource* inner_;
  SourceStats* stats_;
  SourceCounters* counters_;
};

}  // namespace perfbench
