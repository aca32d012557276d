#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/tree_cache.hpp"
#include "engine/sharded_engine.hpp"
#include "fib/router_source.hpp"
#include "fib/traffic.hpp"
#include "rib/churn_source.hpp"
#include "rib/feed.hpp"
#include "rib/ingest.hpp"
#include "rib/mrt.hpp"
#include "sim/bench_env.hpp"
#include "sim/fib_engine.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "tracing.hpp"
#include "tree/tree_builder.hpp"
#include "tree/tree_io.hpp"
#include "util/check.hpp"

namespace perfbench {

using namespace treecache;
using util::Json;

namespace {

/// Chunk of the standalone per-shard pass: run_source's batch size.
constexpr std::size_t kBatch = sim::kDriverBatchSize;
/// Timed reps per run at least, whatever the window.
constexpr std::size_t kMinReps = 5;
/// Untraced/traced rep pairs per traced run at least; also the `none`
/// floor's rep count.
constexpr std::size_t kMinPairs = 3;
/// Spans kept for the trace file, per phase of a traced run (set-up and
/// reps; per-shard pass and floor); the rest are counted as dropped.
constexpr std::size_t kRunSpans = 100000;
constexpr std::size_t kPassSpans = 20000;
/// Draws timed for fib.sample_address_ns.
constexpr std::size_t kAddressDraws = 200000;

/// Sink for values computed only to keep timed loops from being elided.
volatile std::uint64_t g_keep = 0;

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double span_seconds(ScopedSpan& span) {
  return static_cast<double>(span.close() - span.start()) / 1e9;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// num / den as a double, 0 when there is nothing to divide by.
template <typename Num, typename Den>
double ratio(Num num, Den den) {
  const auto d = static_cast<double>(den);
  return d > 0.0 ? static_cast<double>(num) / d : 0.0;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// max ÷ mean of `loads` (1 for a single bucket).
double imbalance(const std::vector<double>& loads) {
  if (loads.empty()) return 0.0;
  const double mean = sum(loads) / static_cast<double>(loads.size());
  return ratio(*std::max_element(loads.begin(), loads.end()), mean);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TC_CHECK(static_cast<bool>(in), "cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  TC_CHECK(static_cast<bool>(out.flush()), "cannot write " + path);
}

/// params.txt: one "key value" pair per line.
sim::Params read_params(const std::string& path) {
  sim::Params params;
  std::istringstream lines(read_file(path));
  for (std::string line; std::getline(lines, line);) {
    const std::size_t space = line.find(' ');
    TC_CHECK(space != std::string::npos, "malformed line in " + path);
    params.set(line.substr(0, space), line.substr(space + 1));
  }
  return params;
}

/// The deep universe of the tc-deep bench rows: eight 12-level complete
/// binary subtrees under one root (13 levels, 32,761 nodes).
Tree deep_universe() {
  constexpr std::size_t kSubNodes = (std::size_t{1} << 12) - 1;
  std::vector<NodeId> parents(1 + 8 * kSubNodes, kNoNode);
  for (std::size_t t = 0; t < 8; ++t) {
    for (std::size_t j = 0; j < kSubNodes; ++j) {
      parents[1 + t * kSubNodes + j] = static_cast<NodeId>(
          j == 0 ? 0 : 1 + t * kSubNodes + (j - 1) / 2);
    }
  }
  return Tree(std::move(parents));
}

engine::EngineConfig engine_config(const sim::Params& params) {
  return {.shards = params.get_u64("shards", 1),
          .threads = params.get_u64("threads", 1),
          .batch = sim::kDriverBatchSize};
}

// --- Checked outputs ----------------------------------------------------

/// Everything a run must reproduce bit for bit: the aggregate and
/// per-shard results, and (closed loop) the router statistics.
struct Outputs {
  sim::RunResult total;
  std::vector<sim::RunResult> per_shard;
  fib::RouterSimResult router;
};

bool same(const Outputs& a, const Outputs& b) {
  const fib::RouterSimResult& x = a.router;
  const fib::RouterSimResult& y = b.router;
  return a.total == b.total && a.per_shard == b.per_shard &&
         x.packets == y.packets && x.hits == y.hits &&
         x.misses == y.misses && x.updates == y.updates &&
         x.cached_updates == y.cached_updates &&
         x.forwarding_errors == y.forwarding_errors;
}

Json outputs_json(const Outputs& out) {
  return Json::object()
      .set("total_cost", out.total.cost.total())
      .set("service_cost", out.total.cost.service)
      .set("reorg_cost", out.total.cost.reorg)
      .set("rounds", out.total.rounds)
      .set("packets", out.router.packets)
      .set("updates", out.router.updates)
      .set("hits", out.router.hits)
      .set("forwarding_errors", out.router.forwarding_errors);
}

// --- The standalone per-shard pass --------------------------------------

/// Counts what the core layer decided, and nothing else: the sink the
/// per-shard pass hands TC when it times the step alone.
class CountingSink final : public OutcomeSink {
 public:
  void on_outcome(const Request& /*request*/,
                  const StepOutcome& outcome) override {
    ++rounds;
    if (outcome.change != ChangeKind::kNone) ++changes;
    moved += outcome.changed.size() + outcome.also_evicted.size();
  }

  std::uint64_t rounds = 0;
  std::uint64_t changes = 0;
  std::uint64_t moved = 0;
};

/// One TC instance per shard tree stepped over the shard's stream on one
/// thread, with fill, step and step+sink timed apart.
struct ShardPass {
  std::vector<sim::RunResult> results;  // AccountingSink-fed, per shard
  std::vector<double> fill_s;  // producing the shard's stream
  std::vector<double> step_s;  // TC into a counting sink
  std::vector<double> acct_s;  // TC into sim::AccountingSink
  std::uint64_t requests = 0;
  std::uint64_t work = 0;  // TreeCache::work(), Theorem 6.1's counter
  std::uint64_t changes = 0;
  std::uint64_t moved = 0;
  std::uint64_t phases = 0;
  double construct_s = 0.0;  // building one instance per shard
  double route_s = 0.0;      // ShardPlan::shard_of + to_local
  std::uint64_t routed = 0;
  /// Closed loop: the recording run reproduced the reference outputs.
  bool recording_matches = true;

  std::vector<std::unique_ptr<OnlineAlgorithm>> algs;  // one per shard

  ShardPass(const engine::ShardPlan& plan, const sim::Params& params)
      : results(plan.num_shards()),
        fill_s(plan.num_shards(), 0.0),
        step_s(plan.num_shards(), 0.0),
        acct_s(plan.num_shards(), 0.0) {
    ScopedSpan span("core.setup");
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      algs.push_back(sim::make_algorithm(params.get("algo", "tc"),
                                         plan.shard_tree(s), params));
    }
    construct_s = span_seconds(span);
  }

  /// Steps shard `s`'s stream through its instance twice: into a counting
  /// sink (the core layer alone), then, reset and replayed, into the
  /// AccountingSink run_source and the engine use. Two passes rather than
  /// two instances
  /// side by side, which would evict each other's state from the cache.
  /// `fill` pulls the stream's next batch and `rewind` restarts it;
  /// `feedback` is the source AccountingSink forwards outcomes to (as in
  /// run_source), or null (as in the engine).
  template <typename Fill, typename Rewind>
  void step_shard(std::size_t s, RequestSource* feedback, Fill&& fill,
                  Rewind&& rewind) {
    OnlineAlgorithm& alg = *algs[s];
    std::vector<Request> buffer(kBatch);
    // Seconds inside step_batch over one pass; fill time is taken once.
    const auto pass = [&](OutcomeSink& sink, const char* name,
                          bool time_fill) {
      double stepped = 0.0;
      for (std::uint64_t batch = 1;; ++batch) {
        const std::uint64_t start = now_ns();
        const std::size_t n = fill(std::span<Request>(buffer));
        if (time_fill) fill_s[s] += seconds_since(start);
        if (n == 0) break;
        ScopedSpan span(name, batch);
        alg.step_batch(std::span<const Request>(buffer.data(), n), sink);
        stepped += span_seconds(span);
      }
      return stepped;
    };
    // An untimed first pass warms the shard tree and the stream's code, so
    // the timed passes both start warm and right after a reset, as every
    // engine run does after its first.
    CountingSink warm;
    (void)pass(warm, "perfbench.warm_up", false);
    alg.reset();
    rewind();
    CountingSink count;
    step_s[s] = pass(count, "core.step", true);
    const auto& tc = dynamic_cast<const TreeCache&>(alg);
    requests += count.rounds;
    changes += count.changes;
    moved += count.moved;
    work += tc.work();
    phases += tc.phases().size();

    alg.reset();
    rewind();
    sim::AccountingSink acct(results[s], alg, feedback);
    acct_s[s] = pass(acct, "sim.step_and_account", false);
    results[s].cost = alg.cost();
    results[s].final_cache_size = alg.cache().size();
  }

  /// Times routing `requests` (global ids) through `plan`.
  void time_routing(const engine::ShardPlan& plan,
                    std::span<const Request> requests) {
    std::uint64_t keep = 0;
    const std::uint64_t start = now_ns();
    for (const Request& r : requests) {
      keep += plan.shard_of(r.node) + plan.to_local(r).node;
    }
    route_s += seconds_since(start);
    routed += requests.size();
    g_keep = g_keep + keep;
  }
};

// --- Workloads ----------------------------------------------------------

struct SetupTimings {
  double total_s = 0.0;   // inputs on disk → first request
  double source_s = 0.0;  // source construction (workload.setup_s)
  // Closed loop only: FeedReader alone (a separate pass, traced set-up),
  // ingest_feed minus that (the RIB apply), and the rule-tree rebuild.
  double decode_s = 0.0;
  double apply_s = 0.0;
  double rebuild_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t trie_bytes = 0;
  std::uint64_t replay_nodes = 0;
};

class Workload {
 public:
  Workload(sim::Params params, std::string dir)
      : params_(std::move(params)), dir_(std::move(dir)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds everything from the inputs on disk up to the first request.
  /// `time_decode` first times a decode-only pass over the feed, so the
  /// RIB ingest can be split into decode and apply.
  virtual SetupTimings setup(bool time_decode) = 0;
  /// Drops the set-up state, so repeated set-ups do not stack their peaks.
  virtual void teardown() = 0;
  /// Runs the whole stream once; with `stats`, through TracedSource
  /// decorators counting into it.
  virtual Outputs run(SourceStats* stats) = 0;
  /// Ops of one run: requests on the open loops, router events (packets
  /// and rule updates) on the closed loop.
  [[nodiscard]] virtual std::uint64_t ops(const Outputs& out) const = 0;
  /// The standalone per-shard pass over the stream the engine runs.
  virtual ShardPass shard_pass(const Outputs& reference) = 0;
  /// One run with the `none` algorithm: wall seconds; sets `ops`.
  virtual double none_run(std::uint64_t& ops) = 0;
  [[nodiscard]] virtual bool closed_loop() const = 0;
  [[nodiscard]] virtual double sample_address_ns() { return 0.0; }

  /// Worker threads the last run used (1 when unsharded).
  [[nodiscard]] std::size_t workers() const { return workers_; }
  [[nodiscard]] const sim::Params& params() const { return params_; }

 protected:
  [[nodiscard]] std::string algo() const { return params_.get("algo", "tc"); }
  [[nodiscard]] std::uint64_t stream_seed() const {
    return params_.get_u64("stream-seed", 1);
  }

  sim::Params params_;
  std::string dir_;
  std::size_t workers_ = 1;
};

/// zipf-1x1 and deep-uniform-8x3: a registered generator over a tree file,
/// through sim::run_source (one shard) or ShardedEngine::run.
class OpenLoop final : public Workload {
 public:
  using Workload::Workload;

  SetupTimings setup(bool /*time_decode*/) override {
    SetupTimings t;
    const std::uint64_t start = now_ns();
    {
      ScopedSpan span("setup.tree");
      tree_ = std::make_unique<Tree>(
          from_parent_string(read_file(dir_ + "/tree.txt")));
    }
    const engine::EngineConfig config = engine_config(params_);
    {
      ScopedSpan span("setup.instances");
      if (config.shards == 1) {
        alg_ = sim::make_algorithm(algo(), *tree_, params_);
      } else {
        engine_ = std::make_unique<engine::ShardedEngine>(*tree_, algo(),
                                                          params_, config);
      }
    }
    {
      ScopedSpan span("workload.setup");
      source_ = sim::make_source(params_.get("source", ""), *tree_, params_,
                                 stream_seed());
      t.source_s = span_seconds(span);
    }
    t.total_s = seconds_since(start);
    return t;
  }

  void teardown() override {
    none_engine_.reset();
    none_alg_.reset();
    source_.reset();
    engine_.reset();
    alg_.reset();
    tree_.reset();
  }

  Outputs run(SourceStats* stats) override {
    source_->reset();
    std::unique_ptr<TracedSource> traced;
    if (stats != nullptr) {
      traced = std::make_unique<TracedSource>(*source_, *stats,
                                              SourceRole::kRoot, 0);
    }
    RequestSource& source = traced ? *traced : *source_;
    Outputs out;
    if (alg_) {
      alg_->reset();
      out.total = sim::run_source(*alg_, source);
      out.per_shard = {out.total};
      workers_ = 1;
    } else {
      const engine::EngineResult result = engine_->run(source);
      out.total = result.total;
      out.per_shard = result.per_shard;
      workers_ = result.threads;
    }
    return out;
  }

  std::uint64_t ops(const Outputs& out) const override {
    return out.total.rounds;
  }

  ShardPass shard_pass(const Outputs& /*reference*/) override {
    const engine::ShardPlan trivial(*tree_, 1);
    const engine::ShardPlan& plan = engine_ ? engine_->plan() : trivial;
    ScopedSpan span("perfbench.shard_pass");
    ShardPass pass(plan, params_);
    source_->reset();
    // Sharded: the split parts the engine's workers drive (shard-local
    // ids). Unsharded: the source itself, fed back like run_source does.
    std::vector<std::unique_ptr<RequestSource>> parts;
    if (engine_) {
      parts = source_->split(plan);
      TC_CHECK(parts.size() == plan.num_shards(), "source did not split");
    }
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      RequestSource& part = engine_ ? *parts[s] : *source_;
      pass.step_shard(
          s, engine_ ? nullptr : &part,
          [&](std::span<Request> buffer) { return part.fill(buffer); },
          [&] { part.reset(); });
    }
    // Routing cost over the global stream (a fresh replay of it).
    const std::unique_ptr<RequestSource> global = source_->fork();
    TC_CHECK(global != nullptr, "source cannot replay its stream");
    global->reset();
    std::vector<Request> buffer(kBatch);
    for (;;) {
      const std::size_t n = global->fill(buffer);
      if (n == 0) break;
      pass.time_routing(plan, {buffer.data(), n});
    }
    return pass;
  }

  double none_run(std::uint64_t& ops) override {
    if (engine_ && !none_engine_) {
      none_engine_ = std::make_unique<engine::ShardedEngine>(
          *tree_, "none", params_, engine_config(params_));
    }
    if (!engine_ && !none_alg_) {
      none_alg_ = sim::make_algorithm("none", *tree_, params_);
    }
    source_->reset();
    if (none_alg_) none_alg_->reset();
    const std::uint64_t start = now_ns();
    const sim::RunResult result = none_engine_
                                      ? none_engine_->run(*source_).total
                                      : sim::run_source(*none_alg_, *source_);
    const double wall = seconds_since(start);
    ops = result.rounds;
    return wall;
  }

  bool closed_loop() const override { return false; }

 private:
  std::unique_ptr<Tree> tree_;
  std::unique_ptr<OnlineAlgorithm> alg_;          // unsharded
  std::unique_ptr<engine::ShardedEngine> engine_;  // sharded
  std::unique_ptr<RequestSource> source_;
  std::unique_ptr<OnlineAlgorithm> none_alg_;
  std::unique_ptr<engine::ShardedEngine> none_engine_;
};

/// fib-mrt-8x3: the router closed loop over the table ingested from an MRT
/// feed, split into per-shard mirrors and run through run_split.
class ClosedLoop final : public Workload {
 public:
  using Workload::Workload;

  SetupTimings setup(bool time_decode) override {
    SetupTimings t;
    const std::vector<std::string> paths{dir_ + "/feed.mrt"};
    if (time_decode) {
      // A pass that only drains the decoder, ahead of set-up; ingest_feed
      // stays the one path that builds the table.
      ScopedSpan span("rib.decode");
      rib::FeedReader reader(paths);
      std::uint64_t decoded = 0;
      while (reader.next()) ++decoded;
      t.decode_s = span_seconds(span);
      t.records = decoded;
    }
    const std::uint64_t start = now_ns();
    {
      rib::IngestResult ingest;
      {
        ScopedSpan span("rib.ingest");
        ingest = rib::ingest_feed(paths);
        if (time_decode) {
          TC_CHECK(ingest.records == t.records,
                   "the decode pass and ingest_feed read different records");
          t.apply_s = std::max(0.0, span_seconds(span) - t.decode_s);
        }
      }
      t.records = ingest.records;
      t.trie_bytes = ingest.v4.rib.memory_bytes();
      ScopedSpan span("rib.rebuild");
      replay_ = std::make_unique<rib::ChurnReplay>(
          rib::make_churn_replay(ingest.v4));
      t.rebuild_s = span_seconds(span);
    }  // the RIB itself is not needed to replay the rule tree
    t.replay_nodes = replay_->fib.tree.size();
    {
      ScopedSpan span("setup.instances");
      engine_ = std::make_unique<engine::ShardedEngine>(
          replay_->fib.tree, algo(), params_, engine_config(params_));
    }
    {
      ScopedSpan span("workload.setup");
      source_ = std::make_unique<fib::RouterSource>(
          replay_->fib, sim::fib_router_config(params_, stream_seed()));
      mirrors_ = source_->split(engine_->plan());
      t.source_s = span_seconds(span);
    }
    routers_ = routers_of(mirrors_);
    t.total_s = seconds_since(start);
    return t;
  }

  void teardown() override {
    none_routers_.clear();
    none_mirrors_.clear();
    none_engine_.reset();
    routers_.clear();
    mirrors_.clear();
    source_.reset();
    engine_.reset();
    replay_.reset();
  }

  Outputs run(SourceStats* stats) override {
    // Mirrors share one producer: reset them together (kShared contract).
    for (const auto& mirror : mirrors_) mirror->reset();
    std::vector<std::unique_ptr<RequestSource>> traced;
    if (stats != nullptr) {
      for (std::size_t s = 0; s < mirrors_.size(); ++s) {
        traced.push_back(std::make_unique<TracedSource>(
            *mirrors_[s], *stats, SourceRole::kPart, s));
      }
    }
    const engine::EngineResult result =
        engine_->run_split(stats != nullptr ? traced : mirrors_);
    Outputs out{
        .total = result.total, .per_shard = result.per_shard, .router = {}};
    for (const fib::RouterMirrorSource* router : routers_) {
      out.router += router->stats();
    }
    workers_ = result.threads;
    return out;
  }

  std::uint64_t ops(const Outputs& out) const override {
    return out.router.packets + out.router.updates;
  }

  ShardPass shard_pass(const Outputs& reference) override {
    // The closed loop's per-shard streams depend on the outcomes, so one
    // engine run records what each mirror emitted; TC is deterministic,
    // so replaying those streams through standalone instances must
    // reproduce the engine's per-shard results.
    SourceStats recorder("fib", /*record=*/true);
    bool recording_matches = false;
    {
      const TracerPause pause;
      recording_matches = same(run(&recorder), reference);
    }
    const engine::ShardPlan& plan = engine_->plan();
    ScopedSpan span("perfbench.shard_pass");
    ShardPass pass(plan, params_);
    pass.recording_matches = recording_matches;
    std::vector<std::vector<Request>> streams(plan.num_shards());
    std::vector<double> producer_s(plan.num_shards(), 0.0);
    for (const SourceCounters& c : recorder.all()) {
      streams[c.shard].insert(streams[c.shard].end(), c.recorded.begin(),
                              c.recorded.end());
      producer_s[c.shard] +=
          static_cast<double>(c.fill_ns + c.observe_ns) / 1e9;
    }
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      const std::vector<Request>& stream = streams[s];
      std::size_t pos = 0;
      pass.step_shard(
          s, nullptr,
          [&](std::span<Request> buffer) {
            const std::size_t n = std::min(buffer.size(), stream.size() - pos);
            std::copy_n(stream.begin() + static_cast<std::ptrdiff_t>(pos), n,
                        buffer.begin());
            pos += n;
            return n;
          },
          [&] { pos = 0; });
      // The mirrors fill and observe on the engine's producer thread; that
      // serial time, not the replay's copy, is the shard's fill share.
      pass.fill_s[s] = producer_s[s];
    }
    std::vector<Request> global;
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      for (const Request& r : streams[s]) {
        global.push_back({plan.to_global(s, r.node), r.sign});
      }
    }
    pass.time_routing(plan, global);
    return pass;
  }

  double none_run(std::uint64_t& ops) override {
    if (!none_engine_) {
      none_engine_ = std::make_unique<engine::ShardedEngine>(
          replay_->fib.tree, "none", params_, engine_config(params_));
      none_mirrors_ = source_->split(none_engine_->plan());
      none_routers_ = routers_of(none_mirrors_);
    }
    for (const auto& mirror : none_mirrors_) mirror->reset();
    const std::uint64_t start = now_ns();
    (void)none_engine_->run_split(none_mirrors_);
    const double wall = seconds_since(start);
    ops = 0;
    for (const fib::RouterMirrorSource* router : none_routers_) {
      ops += router->stats().packets + router->stats().updates;
    }
    return wall;
  }

  bool closed_loop() const override { return true; }

  double sample_address_ns() override {
    Rng rng(stream_seed());
    const fib::PacketSampler sampler(replay_->fib,
                                     params_.get_double("skew", 1.0), rng);
    std::uint64_t keep = 0;
    ScopedSpan span("fib.sample_address");
    for (std::size_t i = 0; i < kAddressDraws; ++i) {
      keep += sampler.sample_address(rng);
    }
    const double took = span_seconds(span);
    g_keep = g_keep + keep;
    return took * 1e9 / static_cast<double>(kAddressDraws);
  }

 private:
  static std::vector<const fib::RouterMirrorSource*> routers_of(
      const std::vector<std::unique_ptr<RequestSource>>& mirrors) {
    std::vector<const fib::RouterMirrorSource*> out;
    for (const auto& mirror : mirrors) {
      const auto* router =
          dynamic_cast<const fib::RouterMirrorSource*>(mirror.get());
      TC_CHECK(router != nullptr, "RouterSource::split must yield mirrors");
      out.push_back(router);
    }
    return out;
  }

  // Declared in dependency order, so destruction runs back to front.
  std::unique_ptr<rib::ChurnReplay> replay_;  // owns the rule tree
  std::unique_ptr<engine::ShardedEngine> engine_;
  std::unique_ptr<fib::RouterSource> source_;
  std::vector<std::unique_ptr<RequestSource>> mirrors_;
  std::vector<const fib::RouterMirrorSource*> routers_;
  std::unique_ptr<engine::ShardedEngine> none_engine_;
  std::vector<std::unique_ptr<RequestSource>> none_mirrors_;
  std::vector<const fib::RouterMirrorSource*> none_routers_;
};

// --- The two run modes --------------------------------------------------

/// Pins the calling thread to one allowed CPU after another, and restores
/// its original affinity on release() or destruction. On a shared VM some
/// vCPUs reach memory markedly slower than others at any moment, and a
/// thread tends to stay where it started: rotating makes every run sample
/// each core rather than whichever one it landed on. Only single-threaded
/// work is pinned — engine workers inherit their creator's affinity.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the i-th allowed CPU, cyclically.
  void pin(std::size_t i) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  void release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

Json metric(double value, const char* unit) {
  return Json::object().set("value", value).set("unit", unit);
}

/// Check results of one run: named pass/fail flags plus the op tally the
/// contract reports (failed ops: router forwarding errors, plus every op
/// of a rep whose checked outputs mismatch).
struct Tally {
  Json checks = Json::object();
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const std::string& name, bool ok) {
    checks.set(name, ok);
    correct = correct && ok;
  }
  /// Counts one checked rep of `ops` ops.
  void rep(std::uint64_t ops, bool ok, std::uint64_t forwarding_errors) {
    attempted += ops;
    failed += ok ? std::min(ops, forwarding_errors) : ops;
  }
  /// Fails `ops` already-attempted ops (a mismatch found after the reps).
  void fail(std::uint64_t ops) {
    failed = std::min(attempted, failed + ops);
  }
};

bool shards_match(const ShardPass& pass, const Outputs& reference) {
  return pass.recording_matches && pass.results == reference.per_shard;
}

Json document(const char* mode, const Tally& tally, Json metrics,
              const Outputs& reference, std::size_t reps) {
  return Json::object()
      .set("mode", mode)
      .set("correct", tally.correct)
      .set("attempted", tally.attempted)
      .set("failed", tally.failed)
      .set("metrics", std::move(metrics))
      .set("outputs", outputs_json(reference))
      .set("checks", tally.checks)
      .set("reps", std::uint64_t{reps});
}

Json end_to_end_run(Workload& w, const RunOptions& options) {
  TC_CHECK(w.params().has("setups"), "params.txt sets no setups count");
  const std::size_t setups = w.params().get_u64("setups", 0);
  CpuRotation rotation;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < setups; ++i) {
    if (i > 0) w.teardown();
    rotation.pin(i);
    setup_s.push_back(w.setup(/*time_decode=*/false).total_s);
  }
  rotation.release();
  const Outputs reference = w.run(nullptr);  // warm-up
  const std::uint64_t ops = w.ops(reference);
  TC_CHECK(ops > 0, "the workload produced no ops");

  Tally tally;
  bool reps_same = true;
  std::uint64_t forwarding_errors = reference.router.forwarding_errors;
  std::vector<double> throughput;
  std::vector<double> cpu_ns;
  // An unsharded run is this thread alone, so its reps rotate too.
  const bool rotate_reps = w.workers() == 1;
  const std::uint64_t window = now_ns();
  while (throughput.size() < kMinReps ||
         seconds_since(window) < options.seconds) {
    if (rotate_reps) rotation.pin(throughput.size());
    const double cpu_start = cpu_seconds();
    const std::uint64_t start = now_ns();
    const Outputs out = w.run(nullptr);
    const double wall = seconds_since(start);
    const double cpu = cpu_seconds() - cpu_start;
    throughput.push_back(static_cast<double>(ops) / wall);
    cpu_ns.push_back(cpu * 1e9 / static_cast<double>(ops));
    const bool ok = same(out, reference);
    reps_same = reps_same && ok;
    forwarding_errors += out.router.forwarding_errors;
    tally.rep(w.ops(out), ok, out.router.forwarding_errors);
  }
  rotation.release();
  const double peak_mb =
      static_cast<double>(sim::peak_rss_bytes()) / (1024.0 * 1024.0);

  const ShardPass pass = w.shard_pass(reference);
  const bool shards_ok = shards_match(pass, reference);
  if (!shards_ok) tally.fail(ops);
  tally.check("reps_identical", reps_same);
  tally.check("per_shard_equals_standalone", shards_ok);
  tally.check("forwarding_errors_zero", forwarding_errors == 0);

  Json metrics = Json::object();
  metrics.set("throughput_ops", metric(median(throughput), "ops/s"));
  metrics.set("cpu_ns_per_op", metric(median(cpu_ns), "ns"));
  metrics.set("setup_s", metric(median(setup_s), "s"));
  metrics.set("peak_rss_mb", metric(peak_mb, "MiB"));
  metrics.set("cost_per_op",
              metric(static_cast<double>(reference.total.cost.total()) /
                         static_cast<double>(ops),
                     "cost/op"));
  const auto samples = [](const std::vector<double>& values) {
    Json out = Json::array();
    for (const double v : values) out.push(v);
    return out;
  };
  return document("end_to_end", tally, std::move(metrics), reference,
                  throughput.size())
      .set("throughput_samples", samples(throughput))
      .set("cpu_ns_samples", samples(cpu_ns));
}

Json traced_run(Workload& w, const RunOptions& options) {
  Tracer::enable(kRunSpans);
  SetupTimings t;
  {
    ScopedSpan span("perfbench.setup");
    t = w.setup(/*time_decode=*/true);
  }
  const Outputs reference = w.run(nullptr);  // warm-up
  const std::uint64_t ops = w.ops(reference);
  TC_CHECK(ops > 0, "the workload produced no ops");

  // Untraced and traced reps alternate, so drift on a shared machine hits
  // both sides of trace.overhead_frac alike.
  Tally tally;
  bool reps_same = true;
  bool traced_same = true;
  std::uint64_t forwarding_errors = reference.router.forwarding_errors;
  SourceStats stats(w.closed_loop() ? "fib" : "workload");
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  const std::uint64_t window = now_ns();
  while (plain_walls.size() < kMinPairs ||
         seconds_since(window) < options.seconds) {
    std::uint64_t start = now_ns();
    Outputs out = w.run(nullptr);
    plain_walls.push_back(seconds_since(start));
    bool ok = same(out, reference);
    reps_same = reps_same && ok;
    forwarding_errors += out.router.forwarding_errors;
    tally.rep(w.ops(out), ok, out.router.forwarding_errors);
    {
      ScopedSpan span("perfbench.traced_run");
      Tracer::set_root(span.id());
      start = now_ns();
      out = w.run(&stats);
      traced_walls.push_back(seconds_since(start));
      Tracer::set_root(0);
    }
    ok = same(out, reference);
    traced_same = traced_same && ok;
    forwarding_errors += out.router.forwarding_errors;
    tally.rep(w.ops(out), ok, out.router.forwarding_errors);
  }

  Tracer::enable(kPassSpans);
  const ShardPass pass = w.shard_pass(reference);
  const bool shards_ok = shards_match(pass, reference);
  if (!shards_ok) tally.fail(ops);
  tally.check("reps_identical", reps_same);
  tally.check("traced_equals_untraced", traced_same);
  tally.check("per_shard_equals_standalone", shards_ok);
  tally.check("forwarding_errors_zero", forwarding_errors == 0);

  std::vector<double> none_ns;
  {
    ScopedSpan span("perfbench.none_floor");
    for (std::size_t i = 0; i < kMinPairs; ++i) {
      std::uint64_t none_ops = 0;
      const double wall = w.none_run(none_ops);
      none_ns.push_back(wall * 1e9 / static_cast<double>(none_ops));
    }
  }
  const double address_ns = w.sample_address_ns();

  // Decorator counters over every traced rep. Delivered = what run_source,
  // the engine's workers or its producer pulled; generated =
  // what the generators behind a replicated split produced for it.
  std::uint64_t delivered = 0;
  std::uint64_t fills = 0;
  std::uint64_t fill_ns = 0;
  std::uint64_t generated = 0;
  std::uint64_t observes = 0;
  std::uint64_t outcomes = 0;
  std::uint64_t observe_ns = 0;
  std::uint64_t caller_ns = 0;
  bool forked = false;
  for (const SourceCounters& c : stats.all()) {
    caller_ns += c.caller_ns;
    if (c.role == SourceRole::kFork) {
      forked = true;
      generated += c.requests;
      continue;
    }
    delivered += c.requests;
    fills += c.fill_calls;
    fill_ns += c.fill_ns;
    observes += c.observe_calls;
    outcomes += c.outcomes;
    observe_ns += c.observe_ns;
  }
  if (!forked) generated = delivered;
  const double traced_reps = static_cast<double>(traced_walls.size());
  const double stepped =
      traced_reps * static_cast<double>(reference.total.rounds);
  const double events = traced_reps * static_cast<double>(ops);
  const bool closed = w.closed_loop();

  // Where a sharded run's time goes: each worker's standalone share of
  // the per-shard pass (shard s runs on worker s % workers). Open loops
  // fill on the workers; the closed loop fills and observes on the one
  // producer thread, a serial resource of its own.
  const std::size_t workers = std::max<std::size_t>(1, w.workers());
  std::vector<double> worker_s(workers, 0.0);
  std::vector<double> worker_reqs(workers, 0.0);
  std::vector<double> shard_reqs;
  for (std::size_t s = 0; s < pass.results.size(); ++s) {
    worker_s[s % workers] += pass.acct_s[s] + (closed ? 0.0 : pass.fill_s[s]);
    const auto rounds = static_cast<double>(reference.per_shard[s].rounds);
    worker_reqs[s % workers] += rounds;
    shard_reqs.push_back(rounds);
  }
  double critical_s = *std::max_element(worker_s.begin(), worker_s.end());
  if (closed) critical_s = std::max(critical_s, sum(pass.fill_s));
  const double plain_wall = median(plain_walls);
  const std::uint64_t requests = pass.requests;

  Json m = Json::object();
  const auto put = [&m](const char* name, double value, const char* unit) {
    m.set(name, metric(value, unit));
  };
  put("workload.fill_ns_per_req", ratio(fill_ns, delivered), "ns");
  put("workload.generated_per_req", ratio(generated, stepped), "ratio");
  put("workload.setup_s", t.source_s, "s");
  put("core.step_ns_per_req", ratio(sum(pass.step_s) * 1e9, requests), "ns");
  put("core.work_per_req", ratio(pass.work, requests), "count");
  put("core.changes_per_kreq", ratio(1000 * pass.changes, requests), "count");
  put("core.nodes_moved_per_kreq", ratio(1000 * pass.moved, requests),
      "count");
  put("core.phases", static_cast<double>(pass.phases), "count");
  put("core.setup_s", pass.construct_s, "s");
  put("sim.sink_ns_per_req",
      ratio((sum(pass.acct_s) - sum(pass.step_s)) * 1e9, requests), "ns");
  put("sim.none_floor_ns_per_op", median(none_ns), "ns");
  put("engine.route_ns_per_req", ratio(pass.route_s * 1e9, pass.routed), "ns");
  put("engine.shard_imbalance", imbalance(shard_reqs), "ratio");
  put("engine.worker_imbalance", imbalance(worker_reqs), "ratio");
  put("engine.critical_path_s", critical_s, "s");
  put("engine.overhead_frac", 1.0 - ratio(critical_s, plain_wall),
      "fraction");
  put("engine.reqs_per_fill", ratio(delivered, fills), "count");
  put("engine.outcomes_per_observe", ratio(outcomes, observes), "count");
  put("engine.producer_busy_frac", ratio(caller_ns / 1e9, sum(traced_walls)),
      "fraction");
  put("fib.fill_ns_per_event", closed ? ratio(fill_ns, events) : 0.0, "ns");
  put("fib.observe_ns_per_outcome",
      closed ? ratio(observe_ns, outcomes) : 0.0, "ns");
  put("fib.sample_address_ns", address_ns, "ns");
  put("fib.hit_rate", ratio(reference.router.hits, reference.router.packets),
      "fraction");
  put("rib.decode_ns_per_record", ratio(t.decode_s * 1e9, t.records), "ns");
  put("rib.apply_ns_per_record", ratio(t.apply_s * 1e9, t.records), "ns");
  put("rib.rebuild_s", t.rebuild_s, "s");
  put("rib.trie_bytes", static_cast<double>(t.trie_bytes), "bytes");
  put("rib.replay_nodes", static_cast<double>(t.replay_nodes), "count");
  put("trace.overhead_frac", ratio(median(traced_walls), plain_wall) - 1.0,
      "fraction");

  Json doc = document("traced", tally, std::move(m), reference,
                      traced_walls.size());
  if (!options.trace_out.empty()) {
    TC_CHECK(Tracer::write_chrome_json(options.trace_out),
             "cannot write " + options.trace_out);
    doc.set("trace_file", options.trace_out);
  }
  doc.set("spans", Tracer::recorded());
  doc.set("dropped_spans", Tracer::dropped());
  return doc;
}

}  // namespace

void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir) {
  // Independent streams for the table and the traffic, both from `seed`.
  Rng master(seed);
  const std::uint64_t stream_seed = master();
  const std::uint64_t feed_seed = master();
  std::vector<std::pair<std::string, std::string>> params{
      {"workload", workload}, {"algo", "tc"},
      {"alpha", "16"},        {"capacity", "512"},
      {"stream-seed", std::to_string(stream_seed)}};
  if (workload == "zipf-1x1" || workload == "deep-uniform-8x3") {
    const bool deep = workload == "deep-uniform-8x3";
    const Tree tree = deep ? deep_universe() : trees::complete_kary(6, 8);
    write_file(dir + "/tree.txt", to_parent_string(tree));
    params.insert(params.end(),
                  {{"source", deep ? "uniform" : "zipf"},
                   {"skew", "1.0"},
                   {"neg", "0.1"},
                   {"length", deep ? "4000000" : "2000000"},
                   {"shards", deep ? "8" : "1"},
                   {"threads", deep ? "3" : "1"},
                   {"setups", "16"}});
  } else if (workload == "fib-mrt-8x3") {
    rib::SyntheticFeedConfig config;
    config.routes = 1000000;
    config.updates = 50000;
    config.family = 4;
    Rng feed_rng(feed_seed);
    const std::vector<rib::FeedRecord> records =
        rib::generate_feed(config, feed_rng);
    std::ofstream out(dir + "/feed.mrt", std::ios::binary);
    rib::MrtWriter writer(out);
    for (const rib::FeedRecord& record : records) writer.write(record);
    TC_CHECK(static_cast<bool>(out.flush()), "cannot write the MRT feed");
    params.insert(params.end(), {{"source", "router"},
                                 {"skew", "1.0"},
                                 {"update-prob", "0.01"},
                                 {"packets", "300000"},
                                 {"shards", "8"},
                                 {"threads", "3"},
                                 {"setups", "3"}});
  } else {
    TC_CHECK(false, "unknown workload " + workload);
  }
  std::string text;
  for (const auto& [key, value] : params) text += key + " " + value + "\n";
  write_file(dir + "/params.txt", text);
}

Json run_workload(const RunOptions& options) {
  const sim::Params params = read_params(options.inputs + "/params.txt");
  std::unique_ptr<Workload> workload;
  if (params.get("source", "") == "router") {
    workload = std::make_unique<ClosedLoop>(params, options.inputs);
  } else {
    workload = std::make_unique<OpenLoop>(params, options.inputs);
  }
  Json doc = options.trace ? traced_run(*workload, options)
                           : end_to_end_run(*workload, options);
  doc.set("workload", params.get("workload", "?"));
  return doc;
}

}  // namespace perfbench
