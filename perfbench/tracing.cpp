#include "tracing.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

#include "engine/shard_plan.hpp"

namespace perfbench {
namespace {

struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;
  std::uint64_t batch;
};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

/// Global tracer state. Buffers are owned here, not by their threads, so
/// spans of joined engine workers survive until the trace is written.
struct State {
  std::atomic<bool> enabled{false};
  std::uint64_t max_spans = 0;  // cap on `offered`; set while no run is live
  std::atomic<std::uint64_t> offered{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint32_t> next_id{1};
  std::atomic<std::uint32_t> root{0};
  std::mutex mutex;  // guards buffers and names
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::deque<std::string> names;  // interned span names
};

State& state() {
  static State s;
  return s;
}

thread_local ThreadBuffer* tls_buffer = nullptr;
thread_local std::uint32_t tls_open = 0;  // innermost open span (0 = none)

ThreadBuffer& buffer() {
  if (tls_buffer == nullptr) {
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.buffers.push_back(std::make_unique<ThreadBuffer>());
    tls_buffer = s.buffers.back().get();
    tls_buffer->thread = static_cast<std::uint32_t>(s.buffers.size());
  }
  return *tls_buffer;
}

void push(const Span& span) {
  State& s = state();
  if (s.offered.fetch_add(1, std::memory_order_relaxed) >= s.max_spans) {
    s.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer().spans.push_back(span);
}

std::uint32_t parent_here() {
  return tls_open != 0 ? tls_open
                       : state().root.load(std::memory_order_relaxed);
}

std::uint32_t next_id() {
  return state().next_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::enable(std::size_t more_spans) {
  State& s = state();
  s.max_spans = s.offered.load() + more_spans;
  s.enabled.store(true);
}

bool Tracer::enabled() {
  return state().enabled.load(std::memory_order_relaxed);
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t batch) {
  if (!enabled()) return;
  push({name, start_ns, end_ns, next_id(), parent_here(), batch});
}

void Tracer::set_root(std::uint32_t id) {
  state().root.store(id, std::memory_order_relaxed);
}

const char* Tracer::intern(const std::string& name) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (const std::string& known : s.names) {
    if (known == name) return known.c_str();
  }
  s.names.push_back(name);
  return s.names.back().c_str();
}

std::uint64_t Tracer::recorded() {
  const State& s = state();
  return s.offered.load() - s.dropped.load();
}

std::uint64_t Tracer::dropped() { return state().dropped.load(); }

bool Tracer::write_chrome_json(const std::string& path) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& buf : s.buffers) {
    for (const Span& span : buf->spans) {
      if (span.start_ns < origin) origin = span.start_ns;
    }
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
               "\"dropped_spans\":%llu},\"traceEvents\":[",
               static_cast<unsigned long long>(s.dropped.load()));
  bool first = true;
  for (const auto& buf : s.buffers) {
    std::fprintf(out,
                 "%s\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"thread-%u\"}}",
                 first ? "" : ",", buf->thread, buf->thread);
    first = false;
    for (const Span& span : buf->spans) {
      // Chrome timestamps are microseconds; the nanoseconds stay as
      // fractional digits so short batches remain visible.
      std::fprintf(out,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%u,"
                   "\"parent\":%u,\"batch\":%llu}}",
                   span.name, buf->thread,
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   span.id, span.parent,
                   static_cast<unsigned long long>(span.batch));
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t batch)
    : name_(name), batch_(batch), start_(now_ns()) {
  if (!Tracer::enabled()) return;
  parent_ = parent_here();
  enclosing_ = tls_open;
  id_ = next_id();
  tls_open = id_;
}

std::uint64_t ScopedSpan::close() {
  if (end_ != 0) return end_;
  end_ = now_ns();
  if (id_ != 0) {
    tls_open = enclosing_;
    push({name_, start_, end_, id_, parent_, batch_});
  }
  return end_;
}

TracerPause::TracerPause() : was_enabled_(Tracer::enabled()) {
  state().enabled.store(false);
}

TracerPause::~TracerPause() { state().enabled.store(was_enabled_); }

// --- SourceStats / TracedSource -------------------------------------------

SourceStats::SourceStats(const char* layer, bool record)
    : fill_name(Tracer::intern(std::string(layer) + ".fill")),
      observe_name(Tracer::intern(std::string(layer) + ".observe")),
      generate_name(Tracer::intern(std::string(layer) + ".generate")),
      split_name(Tracer::intern(std::string(layer) + ".split")),
      caller_(std::this_thread::get_id()),
      record_(record) {}

SourceCounters& SourceStats::add(SourceRole role, std::size_t shard) {
  const std::lock_guard<std::mutex> lock(mutex_);
  SourceCounters& c = counters_.emplace_back();
  c.role = role;
  c.shard = shard;
  return c;
}

TracedSource::TracedSource(std::unique_ptr<treecache::RequestSource> inner,
                           SourceStats& stats, SourceRole role,
                           std::size_t shard)
    : owned_(std::move(inner)),
      inner_(owned_.get()),
      stats_(&stats),
      counters_(&stats.add(role, shard)) {}

TracedSource::TracedSource(treecache::RequestSource& inner,
                           SourceStats& stats, SourceRole role,
                           std::size_t shard)
    : inner_(&inner), stats_(&stats), counters_(&stats.add(role, shard)) {}

std::size_t TracedSource::fill(std::span<treecache::Request> buffer) {
  SourceCounters& c = *counters_;
  ++c.fill_calls;
  ScopedSpan span(c.role == SourceRole::kFork ? stats_->generate_name
                                              : stats_->fill_name,
                  c.fill_calls);
  const std::size_t n = inner_->fill(buffer);
  const std::uint64_t took = span.close() - span.start();
  c.requests += n;
  c.fill_ns += took;
  if (stats_->on_caller()) c.caller_ns += took;
  if (stats_->record()) {
    c.recorded.insert(c.recorded.end(), buffer.begin(),
                      buffer.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return n;
}

void TracedSource::observe_batch(
    std::span<const treecache::StepOutcome> outcomes) {
  SourceCounters& c = *counters_;
  ++c.observe_calls;
  c.outcomes += outcomes.size();
  // An open loop ignores feedback, and sim::run_source hands it over
  // one outcome at a time: timing those no-op calls would put a span on
  // every request. Only closed loops, whose observe does work, are timed.
  if (!inner_->is_closed_loop()) {
    inner_->observe_batch(outcomes);
    return;
  }
  ScopedSpan span(stats_->observe_name, c.observe_calls);
  inner_->observe_batch(outcomes);
  const std::uint64_t took = span.close() - span.start();
  c.observe_ns += took;
  if (stats_->on_caller()) c.caller_ns += took;
}

std::unique_ptr<treecache::RequestSource> TracedSource::fork() const {
  auto replay = inner_->fork();
  if (replay == nullptr) return nullptr;
  return std::make_unique<TracedSource>(std::move(replay), *stats_,
                                        SourceRole::kFork, counters_->shard);
}

std::vector<std::unique_ptr<treecache::RequestSource>> TracedSource::split(
    const treecache::engine::ShardPlan& plan) const {
  const std::uint64_t start = now_ns();
  auto parts = inner_->split_kind() == treecache::SplitKind::kReplicated
                   ? RequestSource::split(plan)  // forks through fork() above
                   : inner_->split(plan);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    parts[s] = std::make_unique<TracedSource>(std::move(parts[s]), *stats_,
                                              SourceRole::kPart, s);
  }
  const std::uint64_t end = now_ns();
  if (stats_->on_caller()) counters_->caller_ns += end - start;
  Tracer::record(stats_->split_name, start, end);
  return parts;
}

}  // namespace perfbench
