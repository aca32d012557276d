// Closed-loop sharding, proven differentially: the sharded engine run of
// the FIB router source — per-shard mirrors off one shared event
// producer, each shard's closed loop on the worker that owns it — must
// equal the paper's event loop run over each shard on its own
// (fib::run_router_sim with a shard of the plan: no mirror, producer or
// engine machinery at all) for every registered algorithm × shard count ×
// thread count × traffic shape. Feedback-dependent streams are where
// parallel caching goes subtly wrong, so nothing here is spot-checked: the
// sweep is exhaustive over the registry, the seeds are randomized
// (override TREECACHE_DIFF_SEED to replay a failure), and CI runs the
// suite under both ASan and TSan.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/shard_plan.hpp"
#include "engine/sharded_engine.hpp"
#include "fib/fib_workloads.hpp"
#include "fib/router_sim.hpp"
#include "fib/router_source.hpp"
#include "sim/fib_engine.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_builder.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace treecache {
namespace {

/// Traffic shapes of the differential sweep: the fib default (sparse BGP
/// updates) and the update-heavy fib-churn variant.
struct TrafficShape {
  const char* name;
  const char* update_prob;
};
constexpr TrafficShape kShapes[] = {{"fib", "0.01"}, {"fib-churn", "0.10"}};

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};
// 3 threads over 8 shards is the uneven geometry perfbench runs.
constexpr std::size_t kThreadCounts[] = {1, 2, 3, 4};

sim::Params diff_params(const TrafficShape& shape) {
  sim::Params p;
  p.set("rules", "150");
  p.set("packets", "900");
  p.set("alpha", "4");
  p.set("capacity", "48");
  p.set("update-prob", shape.update_prob);
  return p;
}

/// Randomized but reproducible: the sweep draws its RIB and traffic seeds
/// from this; export TREECACHE_DIFF_SEED to replay a reported failure. A
/// value that is not a whole unsigned integer fails the sweep.
std::uint64_t harness_seed() {
  const char* env = std::getenv("TREECACHE_DIFF_SEED");
  if (env == nullptr) return 20260730;
  const auto seed = parse_u64(env);
  TC_CHECK(seed.has_value(), std::string("TREECACHE_DIFF_SEED=") + env +
                                 " is not an unsigned integer");
  return *seed;
}

/// One shard of the reference: the event loop's statistics (its cost in
/// algorithm_cost) and the instance's final cache, in shard-local ids.
struct ShardReference {
  fib::RouterSimResult stats;
  std::vector<NodeId> cache;
};

/// The reference of the S-shard closed loop: shard by shard, the paper's
/// event loop fib::run_router_sim over that shard of `plan`, against a
/// fresh registry-built instance over the shard tree. This is the
/// definition the engine's mirrors and queues must reproduce bit for bit.
std::vector<ShardReference> per_shard_reference(
    const fib::RuleTree& rules, const engine::ShardPlan& plan,
    const std::string& algorithm, const sim::Params& params,
    const fib::RouterSimConfig& router) {
  std::vector<ShardReference> ref;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const auto alg =
        sim::make_algorithm(algorithm, plan.shard_tree(s), params);
    const fib::RouterSimResult stats =
        fib::run_router_sim(rules, *alg, router, plan, s);
    ref.push_back({stats, alg->cache().as_vector()});
  }
  return ref;
}

/// The router statistics of split() part `s`.
const fib::RouterSimResult& mirror_stats(
    std::span<const std::unique_ptr<RequestSource>> mirrors, std::size_t s) {
  return dynamic_cast<const fib::RouterMirrorSource&>(*mirrors[s]).stats();
}

void expect_equal_stats(const fib::RouterSimResult& got,
                        const fib::RouterSimResult& want) {
  EXPECT_EQ(got.packets, want.packets);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.updates, want.updates);
  EXPECT_EQ(got.cached_updates, want.cached_updates);
  EXPECT_EQ(got.forwarding_errors, want.forwarding_errors);
}

// --- The randomized differential stress sweep ----------------------------

TEST(ClosedLoopSharding, DifferentialSweepMatchesSequentialReference) {
  Rng rng(harness_seed());
  for (const TrafficShape& shape : kShapes) {
    sim::Params params = diff_params(shape);
    const std::uint64_t rib_seed = rng.below(1u << 20) + 1;
    const std::uint64_t traffic_seed = rng.below(1u << 20) + 1;
    params.set("rib-seed", std::to_string(rib_seed));
    RecordProperty(std::string(shape.name) + "_rib_seed",
                   static_cast<int>(rib_seed));
    RecordProperty(std::string(shape.name) + "_traffic_seed",
                   static_cast<int>(traffic_seed));
    const fib::RuleTree rules = fib::rule_tree_from_params(params);
    const fib::RouterSimConfig router =
        sim::fib_router_config(params, traffic_seed);

    for (const std::string& algorithm :
         sim::AlgorithmRegistry::instance().names()) {
      for (const std::size_t shards : kShardCounts) {
        SCOPED_TRACE(std::string(shape.name) + " x " + algorithm + " x " +
                     std::to_string(shards) + " shards (rib-seed " +
                     std::to_string(rib_seed) + ", seed " +
                     std::to_string(traffic_seed) + ")");
        const engine::ShardPlan plan(rules.tree, shards);
        const std::vector<ShardReference> ref =
            per_shard_reference(rules, plan, algorithm, params, router);

        std::vector<sim::RunResult> first;  // the one-thread run
        for (const std::size_t threads : kThreadCounts) {
          SCOPED_TRACE(std::to_string(threads) + " threads");
          engine::ShardedEngine eng(rules.tree, algorithm, params,
                                    {.shards = shards, .threads = threads});
          ASSERT_EQ(eng.plan().num_shards(), plan.num_shards());
          fib::RouterSource source(rules, router);
          const auto mirrors = source.split(eng.plan());
          const engine::EngineResult got = eng.run_split(mirrors);

          // Every shard equals its reference: cost, router statistics,
          // rounds and final cache.
          ASSERT_EQ(got.per_shard.size(), ref.size());
          Cost cost_sum;
          for (std::size_t s = 0; s < ref.size(); ++s) {
            SCOPED_TRACE("shard " + std::to_string(s));
            const fib::RouterSimResult& want = ref[s].stats;
            EXPECT_EQ(got.per_shard[s].cost, want.algorithm_cost);
            expect_equal_stats(mirror_stats(mirrors, s), want);
            EXPECT_EQ(got.per_shard[s].rounds,
                      want.misses + router.alpha * want.updates);
            EXPECT_EQ(want.forwarding_errors, 0u);
            EXPECT_EQ(eng.algorithm(s).cache().as_vector(), ref[s].cache);
            cost_sum += want.algorithm_cost;
          }
          EXPECT_EQ(got.total.cost, cost_sum);
          // Every field of every shard's result, at every thread count.
          if (first.empty()) first = got.per_shard;
          EXPECT_EQ(got.per_shard, first);
        }
      }
    }
  }
}

// --- Mirror semantics ----------------------------------------------------

TEST(ClosedLoopSharding, MirrorStatsPartitionTheEventStream) {
  // Every packet and every update event is owned by exactly one shard, so
  // the event-level statistics are conserved under the mirror split for
  // every shard count — hits vs misses may legitimately differ from the
  // unsharded run (each line card decides over its own slice), but events
  // can never be dropped or double-counted.
  sim::Params params = diff_params(kShapes[1]);
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const fib::RouterSource source(rules, sim::fib_router_config(params, 4));

  engine::ShardedEngine whole_eng(rules.tree, "tc", params, {.shards = 1});
  const auto whole = source.split(whole_eng.plan());
  (void)whole_eng.run_split(whole);
  const fib::RouterSimResult& whole_stats = mirror_stats(whole, 0);

  for (const std::size_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    engine::ShardedEngine eng(rules.tree, "tc", params,
                              {.shards = shards, .threads = 2});
    const auto mirrors = source.split(eng.plan());
    (void)eng.run_split(mirrors);
    fib::RouterSimResult sum;
    for (std::size_t s = 0; s < mirrors.size(); ++s) {
      const fib::RouterSimResult& stats = mirror_stats(mirrors, s);
      EXPECT_EQ(stats.hits + stats.misses + stats.forwarding_errors,
                stats.packets)
          << "shard " << s;
      sum += stats;
    }
    EXPECT_EQ(sum.packets, whole_stats.packets);
    EXPECT_EQ(sum.updates, whole_stats.updates);
  }
}

TEST(ClosedLoopSharding, StatelessAlgorithmAggregateIsShardCountInvariant) {
  // "none" never caches, so the closed loop has no feedback coupling at
  // all and the line-card model coincides with the global model exactly:
  // the aggregate of `--shards 8 --threads 4` is bit-identical to the
  // shards=1/threads=1 run, field for field.
  sim::Params params = diff_params(kShapes[1]);
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const fib::RouterSource source(rules, sim::fib_router_config(params, 13));

  engine::ShardedEngine baseline_eng(rules.tree, "none", params,
                                     {.shards = 1, .threads = 1});
  const sim::RunResult baseline =
      baseline_eng.run_split(source.split(baseline_eng.plan())).total;

  for (const std::size_t shards : {2u, 4u, 8u}) {
    for (const std::size_t threads : {2u, 4u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      engine::ShardedEngine eng(rules.tree, "none", params,
                                {.shards = shards, .threads = threads});
      EXPECT_EQ(eng.run_split(source.split(eng.plan())).total, baseline);
    }
  }
}

// --- Shared generation & the batched feedback API -------------------------

/// Writes into `out` the single-thread partition of the global event
/// stream over `plan`: a sharded producer pumped one event at a time, each
/// event taken from its owner's queue right away. Checks, event by event,
/// that the sharded producer emits exactly the unsharded stream — same
/// order, same kinds, same payloads — with each event routed to exactly
/// one queue, the one of the shard owning its full-table match.
void single_thread_partition(const fib::RuleTree& rules,
                             const fib::RouterSimConfig& router,
                             const engine::ShardPlan& plan,
                             std::vector<std::vector<fib::RouterEvent>>& out) {
  const engine::ShardPlan global_plan(rules.tree, 1);
  fib::RouterEventProducer global(rules, router, global_plan);
  fib::RouterEventProducer sharded(rules, router, plan);
  out.assign(plan.num_shards(), {});
  std::vector<fib::RouterEvent> expected;
  std::vector<fib::RouterEvent> got;
  std::uint64_t events = 0;
  while (true) {
    const std::size_t generated = global.pump(1);
    ASSERT_EQ(sharded.pump(1), generated);
    if (generated == 0) break;
    ASSERT_TRUE(global.take(0, expected));
    ASSERT_EQ(expected.size(), 1u) << "event " << events;
    const std::size_t owner = plan.shard_of(expected.front().node);
    // Exactly one queue grew, and it is the owner's.
    std::size_t buffered = 0;
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      buffered += sharded.buffered(s);
    }
    ASSERT_EQ(buffered, 1u) << "event " << events;
    ASSERT_EQ(sharded.buffered(owner), 1u) << "event " << events;
    ASSERT_TRUE(sharded.take(owner, got));
    ASSERT_EQ(got, expected) << "event " << events;
    out[owner].push_back(expected.front());
    ++events;
  }
  EXPECT_TRUE(global.exhausted());
  EXPECT_TRUE(sharded.exhausted());
  EXPECT_GT(events, 0u);
}

TEST(ClosedLoopSharding, ProducerPartitionsTheGlobalEventStream) {
  // The stable-partition property of shared generation.
  for (const TrafficShape& shape : kShapes) {
    sim::Params params = diff_params(shape);
    const fib::RuleTree rules = fib::rule_tree_from_params(params);
    const fib::RouterSimConfig router = sim::fib_router_config(params, 21);
    for (const std::size_t shards : {2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(shape.name) + " x " + std::to_string(shards) +
                   " shards");
      const engine::ShardPlan plan(rules.tree, shards);
      std::vector<std::vector<fib::RouterEvent>> partition;
      ASSERT_NO_FATAL_FAILURE(
          single_thread_partition(rules, router, plan, partition));
    }
  }
}

TEST(ClosedLoopSharding, ConcurrentTakeMatchesTheSingleThreadPartition) {
  // Sibling mirrors take() from different threads: whichever thread pumps,
  // the stream is generated once in reference order, so every shard gets
  // exactly its events of the single-thread partition, in order.
  sim::Params params = diff_params(kShapes[1]);
  params.set("packets", "20000");
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const fib::RouterSimConfig router = sim::fib_router_config(params, 5);
  const engine::ShardPlan plan(rules.tree, 8);
  ASSERT_EQ(plan.num_shards(), 8u);
  std::vector<std::vector<fib::RouterEvent>> want;
  ASSERT_NO_FATAL_FAILURE(single_thread_partition(rules, router, plan, want));

  constexpr std::size_t kThreads = 4;
  fib::RouterEventProducer producer(rules, router, plan);
  std::vector<std::vector<fib::RouterEvent>> got(plan.num_shards());
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // Each thread drains its shards round-robin, one take() per pass.
      std::vector<fib::RouterEvent> events;
      std::vector<std::size_t> live;
      for (std::size_t s = t; s < plan.num_shards(); s += kThreads) {
        live.push_back(s);
      }
      while (!live.empty()) {
        std::erase_if(live, [&](std::size_t s) {
          if (!producer.take(s, events)) return true;
          got[s].insert(got[s].end(), events.begin(), events.end());
          return false;
        });
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_TRUE(producer.exhausted());
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    EXPECT_EQ(got[s], want[s]) << "shard " << s;
  }
}

TEST(ClosedLoopSharding, SplitsOfOneSourceShareItsSampler) {
  // Every split of one RouterSource draws from the source's sampler, so
  // producers of one stream over different plans read it from several
  // threads at once. Two splits run concurrently must each equal the same
  // split run alone.
  sim::Params params = diff_params(kShapes[1]);
  params.set("packets", "20000");
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const fib::RouterSource source(rules, sim::fib_router_config(params, 19));
  constexpr std::array<std::size_t, 2> kPlans = {4, 8};

  struct Split {
    std::unique_ptr<engine::ShardedEngine> engine;
    std::vector<std::unique_ptr<RequestSource>> mirrors;
  };
  const auto make_split = [&](std::size_t shards) {
    Split split{std::make_unique<engine::ShardedEngine>(
                    rules.tree, "tc", params,
                    engine::EngineConfig{.shards = shards, .threads = 2}),
                {}};
    split.mirrors = source.split(split.engine->plan());
    return split;
  };
  const auto router_stats = [](const Split& split) {
    std::vector<std::array<std::uint64_t, 5>> out;
    for (std::size_t s = 0; s < split.mirrors.size(); ++s) {
      const auto& stats = mirror_stats(split.mirrors, s);
      out.push_back({stats.packets, stats.hits, stats.misses, stats.updates,
                     stats.cached_updates});
    }
    return out;
  };

  std::vector<engine::EngineResult> alone;
  std::vector<std::vector<std::array<std::uint64_t, 5>>> alone_stats;
  for (const std::size_t shards : kPlans) {
    Split split = make_split(shards);
    ASSERT_EQ(split.engine->plan().num_shards(), shards);
    alone.push_back(split.engine->run_split(split.mirrors));
    alone_stats.push_back(router_stats(split));
  }

  std::vector<Split> splits;
  for (const std::size_t shards : kPlans) splits.push_back(make_split(shards));
  std::vector<std::future<engine::EngineResult>> running;
  for (Split& split : splits) {
    running.push_back(std::async(std::launch::async, [&split] {
      return split.engine->run_split(split.mirrors);
    }));
  }
  for (std::size_t i = 0; i < kPlans.size(); ++i) {
    SCOPED_TRACE(std::to_string(kPlans[i]) + " shards");
    const engine::EngineResult got = running[i].get();
    EXPECT_EQ(got.per_shard, alone[i].per_shard);
    EXPECT_EQ(got.total.cost, alone[i].total.cost);
    EXPECT_EQ(router_stats(splits[i]), alone_stats[i]);
  }
}

/// Keeps owned copies of the outcomes of one step_batch chunk: their spans
/// die at the next step.
class ChunkSink final : public OutcomeSink {
 public:
  void on_outcome(const Request& /*request*/,
                  const StepOutcome& outcome) override {
    StepOutcome copy = outcome;
    copy.changed = own(outcome.changed);
    copy.also_evicted = own(outcome.also_evicted);
    copy.aborted_fetch = own(outcome.aborted_fetch);
    outcomes.push_back(copy);
  }
  void clear() {
    outcomes.clear();
    nodes_.clear();
  }

  std::vector<StepOutcome> outcomes;

 private:
  std::span<const NodeId> own(std::span<const NodeId> span) {
    return nodes_.emplace_back(span.begin(), span.end());
  }

  std::deque<std::vector<NodeId>> nodes_;  // what the outcomes' spans view
};

TEST(ClosedLoopSharding, ObserveBatchEqualsPerOutcomeObserve) {
  // Chunk-granularity feedback must be invisible to the closed loop: a
  // mirror fed one observe_batch per fill()-chunk stays in request-level
  // lockstep with a twin fed every outcome individually through the
  // scalar observe() forwarder (sim::AccountingSink, as run_split does),
  // for the whole stream (the one-shard plan) and for every shard of a
  // sharded plan. Both step through step_batch, which resolves the
  // mirrors' packets against the instance's cache.
  sim::Params params = diff_params(kShapes[1]);
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const fib::RouterSimConfig router = sim::fib_router_config(params, 33);

  const auto drive = [&params](RequestSource& unit, RequestSource& batched,
                               const Tree& tree) {
    const auto alg_scalar = sim::make_algorithm("tc", tree, params);
    const auto alg_batched = sim::make_algorithm("tc", tree, params);
    std::array<Request, 64> buf_scalar{};
    std::array<Request, 64> buf_batched{};
    sim::RunResult result;
    sim::AccountingSink each(result, *alg_scalar, &unit);
    ChunkSink chunk;
    std::uint64_t requests = 0;
    while (true) {
      const std::size_t n = unit.fill(buf_scalar);
      ASSERT_EQ(batched.fill(buf_batched), n);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf_batched[i], buf_scalar[i]) << "request " << requests + i;
      }
      alg_scalar->step_batch({buf_scalar.data(), n}, each);
      chunk.clear();
      alg_batched->step_batch({buf_batched.data(), n}, chunk);
      batched.observe_batch(chunk.outcomes);
      requests += n;
    }
    ASSERT_GT(requests, 0u);
  };

  // Mirror s of two separate splits: the other mirrors of each split are
  // never driven, so their events just queue up.
  const fib::RouterSource source(rules, router);
  for (const std::size_t shards : {1u, 4u}) {
    const engine::ShardPlan plan(rules.tree, shards);
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      SCOPED_TRACE("shard " + std::to_string(s) + " of " +
                   std::to_string(plan.num_shards()));
      const auto unit = source.split(plan);
      const auto batched = source.split(plan);
      drive(*unit[s], *batched[s], plan.shard_tree(s));
      expect_equal_stats(mirror_stats(batched, s), mirror_stats(unit, s));
    }
  }
}

// --- The fib scenario layer ----------------------------------------------

TEST(ClosedLoopSharding, ShardedFibScenarioAggregatesMirrorStats) {
  sim::Params params = diff_params(kShapes[0]);
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const sim::FibScenario scenario{.algorithm = "tc",
                                  .params = params,
                                  .seed = 7,
                                  .engine = {.shards = 4, .threads = 2}};
  const sim::FibScenarioResult got = sim::run_fib_scenario(rules, scenario);
  ASSERT_GT(got.shards, 1u);

  const engine::ShardPlan plan(rules.tree, scenario.engine.shards);
  fib::RouterSimResult expected;
  for (const ShardReference& shard : per_shard_reference(
           rules, plan, "tc", params, sim::fib_router_config(params, 7))) {
    expected += shard.stats;
  }
  EXPECT_EQ(got.router.packets, expected.packets);
  EXPECT_EQ(got.router.hits, expected.hits);
  EXPECT_EQ(got.router.misses, expected.misses);
  EXPECT_EQ(got.router.updates, expected.updates);
  EXPECT_EQ(got.router.cached_updates, expected.cached_updates);
  // The subforest invariant holds per line card, too.
  EXPECT_EQ(got.router.forwarding_errors, 0u);
  EXPECT_EQ(got.router.algorithm_cost, expected.algorithm_cost);

  // Scenario-level thread invariance.
  sim::FibScenario single_threaded = scenario;
  single_threaded.engine.threads = 1;
  const sim::FibScenarioResult again =
      sim::run_fib_scenario(rules, single_threaded);
  EXPECT_EQ(again.router.hits, got.router.hits);
  EXPECT_EQ(again.router.algorithm_cost, got.router.algorithm_cost);
}

// --- Fault injection: a throwing mirror --------------------------------

/// A closed-loop mirror over a fixed script: emits one scripted chunk per
/// fill until exhausted, then ends.
class ScriptedMirror final : public RequestSource {
 public:
  explicit ScriptedMirror(std::vector<Request> requests)
      : requests_(std::move(requests)) {}

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override {
    std::size_t n = 0;
    while (n < buffer.size() && position_ < requests_.size()) {
      buffer[n++] = requests_[position_++];
    }
    return n;
  }
  void reset() override { position_ = 0; }
  [[nodiscard]] bool is_closed_loop() const override { return true; }

 private:
  std::vector<Request> requests_;
  std::size_t position_ = 0;
};

/// A mirror that never runs dry — one positive request per fill, cycling
/// over the shard's nodes — and counts its fills, so a sibling can tell
/// it is mid-stream. Only a stopping engine ends its run.
class EndlessMirror final : public RequestSource {
 public:
  EndlessMirror(std::size_t nodes, std::atomic<std::uint64_t>& fills)
      : nodes_(nodes), fills_(&fills) {}

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override {
    buffer[0] = positive(static_cast<NodeId>(next_++ % nodes_));
    fills_->fetch_add(1, std::memory_order_relaxed);
    return 1;
  }
  void reset() override { next_ = 0; }
  [[nodiscard]] bool is_closed_loop() const override { return true; }

 private:
  std::size_t nodes_;
  std::atomic<std::uint64_t>* fills_;
  std::size_t next_ = 0;
};

/// Throws out of fill() once its sibling has filled `after` times.
class ThrowingMirror final : public RequestSource {
 public:
  ThrowingMirror(const std::atomic<std::uint64_t>& sibling_fills,
                 std::uint64_t after)
      : sibling_fills_(&sibling_fills), after_(after) {}

  [[nodiscard]] std::size_t fill(std::span<Request>) override {
    while (sibling_fills_->load(std::memory_order_relaxed) < after_) {
      std::this_thread::yield();
    }
    throw CheckFailure("injected mirror fault");
  }
  void reset() override {}
  [[nodiscard]] bool is_closed_loop() const override { return true; }

 private:
  const std::atomic<std::uint64_t>* sibling_fills_;
  std::uint64_t after_;
};

TEST(ClosedLoopSharding, MirrorThrowStopsEveryWorkerAndRethrows) {
  // Shard 1's mirror throws out of fill() on its worker while shard 0's
  // worker is mid-stream on an endless mirror. run_split must stop the
  // sibling, join every worker and rethrow — without the stop the endless
  // sibling never finishes and this test hangs, which is the point.
  const Tree tree = trees::complete_kary(3, 2);  // two top-level subtrees
  sim::Params params;
  params.set("alpha", "2");
  params.set("capacity", "16");
  engine::ShardedEngine eng(tree, "tc", params, {.shards = 2, .threads = 2});
  ASSERT_EQ(eng.plan().num_shards(), 2u);

  std::atomic<std::uint64_t> fills{0};
  std::vector<std::unique_ptr<RequestSource>> mirrors;
  mirrors.push_back(std::make_unique<EndlessMirror>(
      eng.plan().shard_tree(0).size(), fills));
  mirrors.push_back(std::make_unique<ThrowingMirror>(fills, 1000));
  EXPECT_THROW((void)eng.run_split(mirrors), CheckFailure);
  // Every worker has joined: the endless mirror is filled no more.
  const std::uint64_t stopped_at = fills.load();
  EXPECT_GE(stopped_at, 1000u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fills.load(), stopped_at);

  // The engine is intact after the failed run: the same geometry runs a
  // healthy pair of mirrors to completion.
  std::vector<std::unique_ptr<RequestSource>> healthy;
  healthy.push_back(
      std::make_unique<ScriptedMirror>(std::vector<Request>{positive(1)}));
  healthy.push_back(
      std::make_unique<ScriptedMirror>(std::vector<Request>{positive(1)}));
  EXPECT_EQ(eng.run_split(healthy).total.rounds, 2u);
}

TEST(ClosedLoopSharding, UnsplittableClosedLoopSourceIsRefused) {
  // run() and sim::run_source take open loops only: at every shard count,
  // one included, a closed-loop source is refused loudly and up front —
  // before an instance is reset or stepped, or the stream is read —
  // naming run_split, the one closed-loop path.
  const Tree tree = trees::complete_kary(3, 2);
  sim::Params params;
  params.set("alpha", "2");
  params.set("capacity", "16");
  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    engine::ShardedEngine eng(tree, "tc", params, {.shards = shards});
    ASSERT_EQ(eng.plan().num_shards(), shards);
    // A first run leaves every instance with a cost to lose.
    std::vector<std::unique_ptr<RequestSource>> mirrors;
    for (std::size_t s = 0; s < shards; ++s) {
      mirrors.push_back(
          std::make_unique<ScriptedMirror>(std::vector<Request>{positive(1)}));
    }
    ASSERT_EQ(eng.run_split(mirrors).total.cost.service, shards);

    ScriptedMirror closed({positive(2)});
    std::string message;
    try {
      (void)eng.run(closed);
    } catch (const CheckFailure& e) {
      message = e.what();
    }
    EXPECT_NE(message.find("run_split"), std::string::npos)
        << "refusal: '" << message << "'";
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(eng.algorithm(s).cost().service, 1u) << "shard " << s;
    }
    Request untouched;
    ASSERT_EQ(closed.fill({&untouched, 1}), 1u);
    EXPECT_EQ(untouched, positive(2));
  }

  const auto alg = sim::make_algorithm("tc", tree, params);
  ScriptedMirror closed({positive(2)});
  std::string message;
  try {
    (void)sim::run_source(*alg, closed);
  } catch (const CheckFailure& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("run_split"), std::string::npos)
      << "refusal: '" << message << "'";
  EXPECT_EQ(alg->cost().total(), 0u);  // a step would have paid the miss
  Request untouched;
  ASSERT_EQ(closed.fill({&untouched, 1}), 1u);
  EXPECT_EQ(untouched, positive(2));
}

}  // namespace
}  // namespace treecache
