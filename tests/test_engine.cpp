// The sharded execution engine: shard-plan partition invariants, the
// determinism contract (worker-thread count never changes results; the
// sharded run equals independent per-shard sequential runs), and the
// batched hot path (step_batch ≡ scalar step for every registered
// algorithm on every registered workload).
#include "engine/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/shard_plan.hpp"
#include "fib/fib_workloads.hpp"
#include "fib/router_source.hpp"
#include "rib/workloads.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_builder.hpp"
#include "workload/generators.hpp"

namespace treecache {
namespace {

sim::Params smoke_params() {
  sim::Params p;
  p.set("alpha", "3");
  p.set("capacity", "8");
  p.set("length", "600");
  p.set("rules", "60");  // keep the fib* substrate test-sized
  // fib-real replays the checked-in fixture feed; other workloads ignore
  // the parameter.
  p.set("rib-feed", std::string(TREECACHE_TEST_DATA_DIR) + "/rib_v4.feed");
  return p;
}

// --- ShardPlan -----------------------------------------------------------

TEST(ShardPlan, TrivialPlanIsTheUniverseItself) {
  Rng rng(5);
  const Tree tree = trees::random_recursive(50, rng);
  const engine::ShardPlan plan(tree, 1);
  ASSERT_EQ(plan.num_shards(), 1u);
  // No relabeled copy: shard 0 runs on the universe directly.
  EXPECT_EQ(&plan.shard_tree(0), &tree);
  for (NodeId v = 0; v < tree.size(); ++v) {
    EXPECT_EQ(plan.shard_of(v), 0u);
    EXPECT_EQ(plan.to_local(v), v);
    EXPECT_EQ(plan.to_global(0, v), v);
  }
}

TEST(ShardPlan, PartitionsThePreorderIntoSubtreeSlices) {
  Rng rng(7);
  const Tree tree = trees::random_recursive(500, rng);
  const engine::ShardPlan plan(tree, 4);
  ASSERT_GE(plan.num_shards(), 2u);
  ASSERT_LE(plan.num_shards(), 4u);

  // The shard intervals tile [0, n) in order; membership matches the
  // interval; shard 0 owns the root.
  std::uint32_t expected_begin = 0;
  std::size_t covered = 0;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const engine::Shard& shard = plan.shard(s);
    EXPECT_EQ(shard.preorder_begin, expected_begin) << "shard " << s;
    EXPECT_GT(shard.nodes(), 0u) << "shard " << s;
    expected_begin = shard.preorder_end;
    covered += shard.nodes();
    // Every shard owns whole top-level subtrees.
    for (const NodeId r : shard.roots) {
      EXPECT_EQ(tree.parent(r), tree.root());
    }
  }
  EXPECT_EQ(expected_begin, tree.size());
  EXPECT_EQ(covered, tree.size());
  EXPECT_EQ(plan.shard_of(tree.root()), 0u);

  for (NodeId v = 0; v < tree.size(); ++v) {
    const std::size_t s = plan.shard_of(v);
    const engine::Shard& shard = plan.shard(s);
    EXPECT_GE(tree.preorder_index(v), shard.preorder_begin);
    EXPECT_LT(tree.preorder_index(v), shard.preorder_end);
    // Local ids round-trip, and land inside the shard tree.
    const NodeId local = plan.to_local(v);
    ASSERT_LT(local, plan.shard_tree(s).size());
    EXPECT_EQ(plan.to_global(s, local), v);
  }

  // Shards beyond the first run on a replica of the global root: local
  // node 0 maps back to the universe root and parents the subtree roots.
  for (std::size_t s = 1; s < plan.num_shards(); ++s) {
    const Tree& local = plan.shard_tree(s);
    EXPECT_EQ(local.size(), plan.shard(s).nodes() + 1);
    EXPECT_EQ(local.root(), NodeId{0});
    EXPECT_EQ(plan.to_global(s, 0), tree.root());
    for (const NodeId r : plan.shard(s).roots) {
      EXPECT_EQ(local.parent(plan.to_local(r)), NodeId{0});
    }
  }
  // Shard 0 keeps the real root.
  EXPECT_EQ(plan.shard_tree(0).size(), plan.shard(0).nodes());
  EXPECT_EQ(plan.to_local(tree.root()), NodeId{0});
}

TEST(ShardPlan, ShardTreesArePreorderLabeled) {
  // Relabeled shard trees assign local ids in ascending global preorder,
  // so each is preorder-labeled: a shard-local NodeId IS its preorder rank
  // and the preorder-indexed NodeState SoA needs no per-request
  // permutation. (The trivial 1-shard plan returns the universe itself,
  // whose labeling is whatever the caller built — no guarantee there.)
  Rng rng(11);
  const Tree tree = trees::random_recursive(400, rng);
  for (const std::size_t shards : {2u, 3u, 8u}) {
    const engine::ShardPlan plan(tree, shards);
    ASSERT_GE(plan.num_shards(), 2u);
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      EXPECT_TRUE(plan.shard_tree(s).is_preorder_labeled())
          << "shards=" << shards << " s=" << s;
    }
  }
}

TEST(ShardPlan, RemapTablesMatchElementwiseTranslation) {
  Rng rng(13);
  const Tree tree = trees::random_recursive(300, rng);
  const engine::ShardPlan plan(tree, 4);
  ASSERT_GE(plan.num_shards(), 2u);

  const std::span<const NodeId> local = plan.local_ids();
  ASSERT_EQ(local.size(), tree.size());
  for (NodeId v = 0; v < tree.size(); ++v) {
    EXPECT_EQ(local[v], plan.to_local(v));
  }
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const std::span<const NodeId> global = plan.global_ids(s);
    ASSERT_EQ(global.size(), plan.shard_tree(s).size());
    for (NodeId l = 0; l < global.size(); ++l) {
      EXPECT_EQ(global[l], plan.to_global(s, l));
    }
    // Inverse round trip for every requestable node of the shard (the
    // replica root of shards s > 0 maps to the global root, which shard 0
    // owns — skip it).
    for (NodeId l = (s == 0 ? 0u : 1u); l < global.size(); ++l) {
      EXPECT_EQ(plan.shard_of(global[l]), s);
      EXPECT_EQ(local[global[l]], l);
    }
  }
}

TEST(ShardPlan, ShardCountCapsAtTopLevelSubtrees) {
  const Tree star = trees::star(5);  // root + 5 leaf children
  EXPECT_EQ(engine::ShardPlan(star, 16).num_shards(), 5u);
  const Tree path = trees::path(20);  // root has one child
  EXPECT_EQ(engine::ShardPlan(path, 8).num_shards(), 1u);
  const Tree lone = trees::path(1);  // no children at all
  EXPECT_EQ(engine::ShardPlan(lone, 8).num_shards(), 1u);
}

TEST(ShardPlan, BalancesSubtreeMassAcrossShards) {
  // Eight equal top-level subtrees must land one per shard.
  const Tree tree = trees::complete_kary(4, 8);
  const engine::ShardPlan plan(tree, 8);
  ASSERT_EQ(plan.num_shards(), 8u);
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(plan.shard(s).roots.size(), 1u) << "shard " << s;
  }
}

TEST(ShardPlan, FibRuleTreeShardsByTopLevelPrefix) {
  const sim::Params params = smoke_params();
  const fib::RuleTree rt = fib::rule_tree_from_params(params);
  const engine::ShardPlan plan(rt.tree, 4);
  // Node 0 is the artificial default rule; every shard boundary falls
  // between top-level prefixes.
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    for (const NodeId r : plan.shard(s).roots) {
      EXPECT_EQ(rt.tree.parent(r), NodeId{0});
    }
  }
}

TEST(ShardPlan, SingleNodeUniverse) {
  // The smallest possible universe: one node, no children. Every shard
  // request collapses onto the trivial plan and the engine still runs.
  const Tree lone = trees::path(1);
  const engine::ShardPlan plan(lone, 8);
  ASSERT_EQ(plan.num_shards(), 1u);
  EXPECT_EQ(&plan.shard_tree(0), &lone);
  EXPECT_EQ(plan.shard_of(0), 0u);
  EXPECT_EQ(plan.to_local(0), NodeId{0});
  EXPECT_EQ(plan.to_global(0, 0), NodeId{0});
  EXPECT_EQ(plan.shard(0).nodes(), 1u);

  sim::Params params;
  params.set("alpha", "2");
  params.set("capacity", "4");
  engine::ShardedEngine eng(lone, "tc", params, {.shards = 8});
  const Trace trace(5, positive(0));
  TraceSource source{std::span<const Request>(trace)};
  EXPECT_EQ(eng.run(source).total.rounds, 5u);
}

TEST(ShardPlan, UniverseSmallerThanShardCount) {
  // Fewer top-level subtrees than requested shards: the plan caps at one
  // shard per child and every map still round-trips.
  const Tree star = trees::star(3);  // root + 3 leaf children
  const engine::ShardPlan plan(star, 8);
  ASSERT_EQ(plan.num_shards(), 3u);
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    EXPECT_EQ(plan.shard(s).roots.size(), 1u) << "shard " << s;
    // Shard 0 holds the real root + its leaf; the others hold a replica
    // root + their leaf.
    EXPECT_EQ(plan.shard_tree(s).size(), 2u) << "shard " << s;
  }
  for (NodeId v = 0; v < star.size(); ++v) {
    const std::size_t s = plan.shard_of(v);
    EXPECT_EQ(plan.to_global(s, plan.to_local(v)), v);
  }
}

TEST(ShardPlan, SkewedFibTreeKeepsHeavyPrefixWhole) {
  // A FIB where one top-level prefix holds >90% of the nodes — the shape
  // the ROADMAP's work-stealing item targets. The partition unit is the
  // whole top-level subtree, so no shard count can split the hot prefix:
  // the plan must keep it intact (and therefore unbalanced), while the
  // remaining prefixes spread over the other shards.
  std::vector<fib::Prefix> prefixes;
  prefixes.push_back(fib::Prefix::parse("10.0.0.0/8"));
  for (int i = 0; i < 56; ++i) {
    prefixes.push_back(
        fib::Prefix::parse("10." + std::to_string(i) + ".0.0/16"));
  }
  for (const char* light : {"20.0.0.0/8", "30.0.0.0/8", "40.0.0.0/8",
                            "50.0.0.0/8"}) {
    prefixes.push_back(fib::Prefix::parse(light));
  }
  const fib::RuleTree rt = fib::build_rule_tree(std::move(prefixes));
  ASSERT_EQ(rt.tree.size(), 62u);  // default root + 57 + 4

  const engine::ShardPlan plan(rt.tree, 4);
  ASSERT_EQ(plan.num_shards(), 4u);
  // The heavy prefix's subtree (57 of 61 non-root nodes = 93%) lands in
  // exactly one shard, whole.
  std::size_t heaviest = 0;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    heaviest = std::max(heaviest, plan.shard(s).nodes());
    std::size_t mass = s == 0 ? 1 : 0;  // shard 0 counts the real root
    for (const NodeId r : plan.shard(s).roots) {
      mass += rt.tree.subtree_size(r);
    }
    EXPECT_EQ(plan.shard(s).nodes(), mass) << "shard " << s;
  }
  EXPECT_GE(heaviest, 57u);
  // Documented skew: request mass concentrates on one shard until the
  // plan can split below the top level (ROADMAP: work stealing).
  EXPECT_GE(static_cast<double>(heaviest) /
                static_cast<double>(rt.tree.size()),
            0.9);

  // The skewed plan still runs the closed loop, thread-invariantly.
  sim::Params params = smoke_params();
  params.set("packets", "300");
  const fib::RouterSimConfig router{.packets = 300, .alpha = 3, .seed = 5};
  std::vector<engine::EngineResult> results;
  for (const std::size_t threads : {1u, 3u}) {
    engine::ShardedEngine eng(rt.tree, "tc", params,
                              {.shards = 4, .threads = threads});
    fib::RouterSource source(rt, router);
    results.push_back(eng.run(source));
  }
  EXPECT_EQ(results[0].total, results[1].total);
  for (std::size_t s = 0; s < results[0].per_shard.size(); ++s) {
    EXPECT_EQ(results[0].per_shard[s], results[1].per_shard[s]);
  }
}

// --- ShardedEngine determinism -------------------------------------------

sim::Params engine_params() {
  sim::Params p;
  p.set("alpha", "4");
  p.set("capacity", "64");
  p.set("length", "20000");
  p.set("neg", "0.2");
  return p;
}

TEST(ShardedEngine, EqualsIndependentPerShardSequentialRuns) {
  Rng rng(11);
  const Tree tree = trees::random_recursive(300, rng);
  const sim::Params params = engine_params();
  const Trace trace = sim::make_workload("zipf", tree, params, 17);

  engine::ShardedEngine eng(tree, "tc", params,
                            {.shards = 4, .threads = 2, .batch = 128});
  TraceSource source{std::span<const Request>(trace)};
  const engine::EngineResult sharded = eng.run(source);
  const engine::ShardPlan& plan = eng.plan();
  ASSERT_GE(plan.num_shards(), 2u);

  Cost sum;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    // Reference: this shard's subsequence, remapped, run sequentially on a
    // fresh instance over the shard tree.
    Trace local;
    for (const Request& r : trace) {
      if (plan.shard_of(r.node) == s) local.push_back(plan.to_local(r));
    }
    const auto alg = sim::make_algorithm("tc", plan.shard_tree(s), params);
    const sim::RunResult reference = sim::run_trace(*alg, local);
    EXPECT_EQ(sharded.per_shard[s], reference) << "shard " << s;
    sum += reference.cost;
  }
  EXPECT_EQ(sharded.total.cost, sum);
  EXPECT_EQ(sharded.total.rounds, trace.size());
}

TEST(ShardedEngine, ResultsInvariantAcrossThreadCounts) {
  const Tree tree = trees::complete_kary(4, 8);
  const sim::Params params = engine_params();

  std::vector<engine::EngineResult> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::ShardedEngine eng(tree, "tc", params,
                              {.shards = 8, .threads = threads,
                               .batch = 256});
    const auto source = sim::make_source("zipf", tree, params, 23);
    results.push_back(eng.run(*source));
    EXPECT_EQ(results.back().threads, threads);
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].total, results[0].total) << "threads run " << i;
    ASSERT_EQ(results[i].per_shard.size(), results[0].per_shard.size());
    for (std::size_t s = 0; s < results[0].per_shard.size(); ++s) {
      EXPECT_EQ(results[i].per_shard[s], results[0].per_shard[s])
          << "shard " << s << " threads run " << i;
    }
  }
}

TEST(ShardedEngine, PinnedRunMatchesUnpinnedAndReportsAffinity) {
  const Tree tree = trees::complete_kary(4, 8);
  const sim::Params params = engine_params();

  std::vector<engine::EngineResult> results;
  for (const bool pin : {false, true}) {
    engine::ShardedEngine eng(
        tree, "tc", params,
        {.shards = 8, .threads = 4, .batch = 256, .pin_threads = pin});
    EXPECT_EQ(eng.config().pin_threads, pin);
    const auto source = sim::make_source("zipf", tree, params, 29);
    results.push_back(eng.run(*source));
    EXPECT_EQ(results.back().pinned, pin);
    if (pin) {
      // One entry per worker; -1 means the kernel denied the affinity
      // request (containerized CI), any other value is the CPU pinned to.
      ASSERT_EQ(results.back().worker_cpus.size(), results.back().threads);
      for (const int cpu : results.back().worker_cpus) EXPECT_GE(cpu, -1);
    } else {
      EXPECT_TRUE(results.back().worker_cpus.empty());
    }
  }
  EXPECT_EQ(results[1].total, results[0].total);
  ASSERT_EQ(results[1].per_shard.size(), results[0].per_shard.size());
  for (std::size_t s = 0; s < results[0].per_shard.size(); ++s) {
    EXPECT_EQ(results[1].per_shard[s], results[0].per_shard[s])
        << "shard " << s;
  }
}

TEST(ShardedEngine, PinningIsNormalizedOffForSequentialRuns) {
  const Tree tree = trees::complete_kary(3, 5);
  engine::ShardedEngine eng(tree, "tc", engine_params(),
                            {.shards = 4, .threads = 1, .pin_threads = true});
  // A single worker gains nothing from pinning and the sequential paths
  // never call sched_setaffinity, so config() must report reality.
  EXPECT_FALSE(eng.config().pin_threads);
  const auto source = sim::make_source("zipf", tree, engine_params(), 31);
  const engine::EngineResult result = eng.run(*source);
  EXPECT_FALSE(result.pinned);
  EXPECT_TRUE(result.worker_cpus.empty());
}

TEST(ShardedEngine, PartiallyConsumedOpenLoopMatchesAcrossThreadCounts) {
  // run() consumes an open loop from wherever the source stands, at every
  // geometry: after 5,000 of 20,000 requests were drained elsewhere, every
  // worker count runs exactly the remaining 15,000 — and bit-identically.
  const Tree tree = trees::complete_kary(4, 8);
  const sim::Params params = engine_params();

  std::vector<engine::EngineResult> results;
  for (const std::size_t threads : {1u, 4u}) {
    engine::ShardedEngine eng(tree, "tc", params,
                              {.shards = 8, .threads = threads});
    ASSERT_EQ(eng.plan().num_shards(), 8u);
    const auto source = sim::make_source("zipf", tree, params, 23);
    ASSERT_EQ(materialize(*source, 5000).size(), 5000u);
    results.push_back(eng.run(*source));
    EXPECT_EQ(results.back().threads, threads);
    EXPECT_EQ(results.back().total.rounds, 15000u) << threads << " threads";
  }
  EXPECT_EQ(results[1].total, results[0].total);
  ASSERT_EQ(results[1].per_shard.size(), results[0].per_shard.size());
  for (std::size_t s = 0; s < results[0].per_shard.size(); ++s) {
    EXPECT_EQ(results[1].per_shard[s], results[0].per_shard[s])
        << "shard " << s;
  }
}

/// What a source handed out, summed over the source and every replay
/// forked from it (they share one tally): fork() calls and requests
/// delivered by fill(). Atomic, so a run that fills replays on worker
/// threads is counted, not raced.
struct SourceTally {
  std::atomic<std::size_t> forks{0};
  std::atomic<std::uint64_t> delivered{0};
};

/// Counts fork() calls and delivered requests of an inner stream into a
/// SourceTally, and forks into counting replays.
class TallyingSource final : public RequestSource {
 public:
  TallyingSource(std::unique_ptr<RequestSource> inner, SourceTally& tally)
      : inner_(std::move(inner)), tally_(&tally) {}
  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override {
    const std::size_t n = inner_->fill(buffer);
    tally_->delivered += n;
    return n;
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::unique_ptr<RequestSource> fork() const override {
    ++tally_->forks;
    auto replay = inner_->fork();
    if (replay == nullptr) return nullptr;
    return std::make_unique<TallyingSource>(std::move(replay), *tally_);
  }

 private:
  std::unique_ptr<RequestSource> inner_;
  SourceTally* tally_;
};

TEST(ShardedEngine, GeneratesEachRequestOnceAndRunsSilently) {
  {
    // A multi-worker open loop goes through the demux: one fill per batch
    // on the caller thread, routed to the shards. Nothing forks the
    // source, and every generated request is stepped exactly once — a
    // fork-per-shard split would generate the stream once per shard.
    const Tree tree = trees::complete_kary(4, 8);
    const sim::Params params = engine_params();
    engine::ShardedEngine eng(tree, "tc", params,
                              {.shards = 8, .threads = 4});
    ASSERT_EQ(eng.plan().num_shards(), 8u);
    SourceTally tally;
    TallyingSource source(sim::make_source("zipf", tree, params, 7), tally);
    testing::internal::CaptureStderr();
    const engine::EngineResult result = eng.run(source);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(result.threads, 4u);
    EXPECT_EQ(tally.forks.load(), 0u);
    EXPECT_EQ(tally.delivered.load(), result.total.rounds);
    EXPECT_EQ(result.total.rounds, 20000u);  // engine_params()'s length
  }
  {
    // A closed loop splits into mirrors fed by one shared event producer,
    // so it too generates its stream once, and stays silent.
    const sim::Params fib_params = smoke_params();
    const fib::RuleTree rt = fib::rule_tree_from_params(fib_params);
    engine::ShardedEngine eng(rt.tree, "tc", fib_params,
                              {.shards = 4, .threads = 2});
    fib::RouterSource closed(rt, fib::RouterSimConfig{.packets = 200});
    EXPECT_EQ(closed.split_kind(), SplitKind::kShared);
    testing::internal::CaptureStderr();
    (void)eng.run(closed);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  }
}

/// Strips fork() (and with it the default split()) off an inner stream.
/// The engine's demux reads an open loop through fill() alone, so such a
/// source must shard exactly like its forkable original.
class ForklessSource final : public RequestSource {
 public:
  explicit ForklessSource(std::unique_ptr<RequestSource> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override {
    return inner_->fill(buffer);
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<RequestSource> inner_;
};

TEST(ShardedEngine, OpenLoopNeedsNoForkToShardAtAnyThreadCount) {
  // No fork() means split() yields nothing; an open loop must still shard
  // at every worker count, bit-identically to the forkable source.
  const Tree tree = trees::complete_kary(4, 8);
  const sim::Params params = engine_params();

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    engine::ShardedEngine eng(tree, "tc", params,
                              {.shards = 8, .threads = threads,
                               .batch = 256});
    const auto plain = sim::make_source("zipf", tree, params, 23);
    const engine::EngineResult forkable = eng.run(*plain);

    ForklessSource forkless(sim::make_source("zipf", tree, params, 23));
    EXPECT_TRUE(forkless.split(eng.plan()).empty());
    const engine::EngineResult result = eng.run(forkless);

    EXPECT_EQ(result.total, forkable.total);
    ASSERT_EQ(result.per_shard.size(), forkable.per_shard.size());
    for (std::size_t s = 0; s < forkable.per_shard.size(); ++s) {
      EXPECT_EQ(result.per_shard[s], forkable.per_shard[s]) << "shard " << s;
    }
  }
}

TEST(ShardedEngine, SingleShardEqualsRunSource) {
  Rng rng(13);
  const Tree tree = trees::random_recursive(80, rng);
  const sim::Params params = engine_params();

  engine::ShardedEngine eng(tree, "tc", params, {.shards = 1, .threads = 4});
  const auto engine_source = sim::make_source("churn", tree, params, 31);
  const engine::EngineResult via_engine = eng.run(*engine_source);

  const auto alg = sim::make_algorithm("tc", tree, params);
  const auto source = sim::make_source("churn", tree, params, 31);
  const sim::RunResult direct = sim::run_source(*alg, *source);
  EXPECT_EQ(via_engine.total, direct);
  EXPECT_EQ(via_engine.shards, 1u);
}

TEST(ShardedEngine, RunsClosedLoopSourcesThroughTheMirrorSplit) {
  const sim::Params params = smoke_params();
  const fib::RuleTree rt = fib::rule_tree_from_params(params);
  const fib::RouterSimConfig router{.packets = 200};
  // Multi-shard closed loops split into per-shard mirrors (per-shard
  // outcome feedback; tests/test_engine_closed_loop.cpp is the full
  // differential suite) — the run is accepted and bit-identical for every
  // thread count.
  engine::ShardedEngine sharded(rt.tree, "tc", params,
                                {.shards = 4, .threads = 2});
  fib::RouterSource closed(rt, router);
  const engine::EngineResult via_split = sharded.run(closed);
  EXPECT_GT(via_split.total.rounds, 0u);
  EXPECT_GT(via_split.shards, 1u);
  // The single-shard path delegates to run_source and accepts it.
  engine::ShardedEngine single(rt.tree, "tc", params, {.shards = 1});
  fib::RouterSource fresh(rt, router);
  EXPECT_GT(single.run(fresh).total.rounds, 0u);
}

TEST(ShardedEngine, ReportsWallTimeAndThroughput) {
  const Tree tree = trees::complete_kary(3, 4);
  engine::ShardedEngine eng(tree, "tc", engine_params(),
                            {.shards = 4, .threads = 2});
  const auto source = sim::make_source("zipf", tree, engine_params(), 3);
  const engine::EngineResult result = eng.run(*source);
  EXPECT_GT(result.total.wall_seconds, 0.0);
  EXPECT_GT(result.total.requests_per_second(), 0.0);
  // Wall time is measured, not accounted: it never breaks result equality.
  sim::RunResult a = result.total;
  sim::RunResult b = result.total;
  b.wall_seconds = a.wall_seconds + 1.0;
  EXPECT_EQ(a, b);
}

// --- step_batch ≡ scalar step --------------------------------------------

struct OutcomeDigest {
  bool paid = false;
  ChangeKind change = ChangeKind::kNone;
  std::vector<NodeId> changed;
  std::vector<NodeId> also_evicted;
  std::uint32_t aborted_fetch_size = 0;

  friend bool operator==(const OutcomeDigest&,
                         const OutcomeDigest&) = default;
};

OutcomeDigest digest(const StepOutcome& out) {
  return OutcomeDigest{
      out.paid, out.change,
      std::vector<NodeId>(out.changed.begin(), out.changed.end()),
      std::vector<NodeId>(out.also_evicted.begin(), out.also_evicted.end()),
      out.aborted_fetch_size};
}

class RecordingSink final : public OutcomeSink {
 public:
  void on_outcome(const Request&, const StepOutcome& outcome) override {
    digests.push_back(digest(outcome));
  }
  std::vector<OutcomeDigest> digests;
};

TEST(StepBatch, MatchesScalarStepForEveryAlgorithmAndWorkload) {
  Rng rng(19);
  const Tree generic_tree = trees::random_recursive(40, rng);
  const sim::Params params = smoke_params();
  const fib::RuleTree rule_tree = fib::rule_tree_from_params(params);

  for (const std::string& alg_name :
       sim::AlgorithmRegistry::instance().names()) {
    for (const std::string& w_name :
         sim::WorkloadRegistry::instance().names()) {
      SCOPED_TRACE(alg_name + " x " + w_name);
      // fib-real first: its name also matches the fib* prefix.
      const Tree& tree = rib::is_real_fib_workload_name(w_name)
                             ? rib::shared_real_fib(params).tree()
                             : fib::is_fib_workload_name(w_name)
                                   ? rule_tree.tree
                                   : generic_tree;
      const Trace trace = sim::make_workload(w_name, tree, params, 41);

      const auto scalar = sim::make_algorithm(alg_name, tree, params);
      std::vector<OutcomeDigest> scalar_digests;
      scalar_digests.reserve(trace.size());
      for (const Request& r : trace) {
        scalar_digests.push_back(digest(scalar->step(r)));
      }

      const auto batched = sim::make_algorithm(alg_name, tree, params);
      RecordingSink sink;
      // Uneven chunks, so batch boundaries land everywhere in the stream.
      const std::span<const Request> all(trace);
      std::size_t begin = 0;
      std::size_t len = 1;
      while (begin < all.size()) {
        const std::size_t take = std::min(len, all.size() - begin);
        batched->step_batch(all.subspan(begin, take), sink);
        begin += take;
        len = len % 7 + 1;
      }

      ASSERT_EQ(sink.digests.size(), scalar_digests.size());
      for (std::size_t i = 0; i < scalar_digests.size(); ++i) {
        ASSERT_EQ(sink.digests[i], scalar_digests[i]) << "round " << i + 1;
      }
      EXPECT_EQ(batched->cost(), scalar->cost());
      EXPECT_EQ(batched->cache().size(), scalar->cache().size());
    }
  }
}

}  // namespace
}  // namespace treecache
