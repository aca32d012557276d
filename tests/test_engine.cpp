// The sharded execution engine: shard-plan partition invariants, the
// determinism contract (worker-thread count never changes results; the
// sharded run equals independent per-shard sequential runs, also while
// shards move between work-conserving workers), the failure protocol (a
// throwing worker or source stops the run, which rethrows after the join),
// and the batched hot path (step_batch ≡ scalar step for every registered
// algorithm on every registered workload).
#include "engine/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tree_cache.hpp"
#include "deep_universe.hpp"
#include "engine/shard_plan.hpp"
#include "fib/fib_workloads.hpp"
#include "fib/router_source.hpp"
#include "rib/workloads.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_builder.hpp"
#include "workload/generators.hpp"
#include "workload_trees.hpp"

namespace treecache {
namespace {

using testing_util::tree_for_workload;

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
  // and the rank-indexed NodeState records need no per-request
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

/// The id tables a ShardPlan once stored, rebuilt by relabeling: a
/// one-shard plan maps ids to themselves; otherwise each shard numbers its
/// nodes in ascending global preorder, after a replica of the global root
/// at local 0 in every shard past the first.
struct Relabeling {
  std::vector<std::size_t> shard_of;           // per global node
  std::vector<NodeId> local_id;                // per global node
  std::vector<std::vector<NodeId>> global_id;  // per shard, per local node
};

Relabeling relabel(const Tree& tree, const engine::ShardPlan& plan) {
  Relabeling out;
  out.shard_of.assign(tree.size(), 0);
  out.local_id.resize(tree.size());
  out.global_id.resize(plan.num_shards());
  if (plan.num_shards() == 1) {
    std::iota(out.local_id.begin(), out.local_id.end(), NodeId{0});
    out.global_id[0] = out.local_id;
    return out;
  }
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    std::vector<NodeId>& global = out.global_id[s];
    if (s > 0) global.push_back(tree.root());
    for (std::uint32_t i = plan.shard(s).preorder_begin;
         i < plan.shard(s).preorder_end; ++i) {
      const NodeId v = tree.preorder()[i];
      out.shard_of[v] = s;
      out.local_id[v] = static_cast<NodeId>(global.size());
      global.push_back(v);
    }
  }
  return out;
}

/// Shard s's tree built the way the plan once built it: Tree over the
/// relabeled parent array (the replica root of a shard past the first is
/// a root of its own).
Tree relabeled_tree(const Tree& tree, const Relabeling& ref, std::size_t s) {
  const std::vector<NodeId>& global = ref.global_id[s];
  std::vector<NodeId> parent(global.size(), kNoNode);
  for (NodeId l = s > 0 ? 1 : 0; l < global.size(); ++l) {
    const NodeId p = tree.parent(global[l]);
    parent[l] = p == kNoNode ? kNoNode : ref.local_id[p];
  }
  return Tree(std::move(parent));
}

/// `actual` equals `expected` on every accessor.
void expect_same_tree(const Tree& actual, const Tree& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(actual.root(), expected.root());
  EXPECT_EQ(actual.height(), expected.height());
  EXPECT_EQ(actual.max_degree(), expected.max_degree());
  EXPECT_EQ(actual.is_preorder_labeled(), expected.is_preorder_labeled());
  for (NodeId v = 0; v < actual.size(); ++v) {
    EXPECT_EQ(actual.parent(v), expected.parent(v)) << "v=" << v;
    const auto a = actual.children(v);
    const auto e = expected.children(v);
    EXPECT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(e.begin(), e.end()))
        << "v=" << v;
    EXPECT_EQ(actual.depth(v), expected.depth(v)) << "v=" << v;
    EXPECT_EQ(actual.subtree_size(v), expected.subtree_size(v)) << "v=" << v;
    EXPECT_EQ(actual.preorder_index(v), expected.preorder_index(v))
        << "v=" << v;
  }
  for (std::uint32_t r = 0; r < actual.size(); ++r) {
    EXPECT_EQ(actual.preorder_parent(r), expected.preorder_parent(r))
        << "r=" << r;
  }
  const auto a_sizes = actual.preorder_sizes();
  const auto e_sizes = expected.preorder_sizes();
  EXPECT_TRUE(std::equal(a_sizes.begin(), a_sizes.end(), e_sizes.begin(),
                         e_sizes.end()));
  // The same representation, too: a rank slice stores what the parent
  // array constructor derives.
  EXPECT_TRUE(actual == expected);
}

TEST(ShardPlan, RemapTablesMatchElementwiseTranslation) {
  // The plan stores no id tables: shard_of, to_local and to_global are
  // arithmetic over preorder ranks. They must agree with the relabeling
  // for every node, at every shard count, on random trees, on a FIB rule
  // tree and on the 13-level deep universe, whose ids are not preorder
  // ranks. route() must equal {shard_of, to_local} for both signs and for
  // a packet, whose flag it keeps, and refuse a node past the universe in
  // every build. Every shard tree, a rank slice of the universe, must
  // equal the Tree built from its relabeled parent array.
  Rng rng(13);
  const Tree recursive = trees::random_recursive(300, rng);
  const Tree bounded = trees::random_bounded_degree(200, 4, rng);
  const fib::RuleTree rt = fib::rule_tree_from_params(smoke_params());
  ASSERT_FALSE(rt.tree.is_preorder_labeled());
  const Tree deep = testing_util::deep_universe();
  ASSERT_FALSE(deep.is_preorder_labeled());
  for (const Tree* tree : {&recursive, &bounded, &rt.tree, &deep}) {
    SCOPED_TRACE(testing::Message() << tree->size() << " nodes");
    for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE(testing::Message() << shards << " shards");
      const engine::ShardPlan plan(*tree, shards);
      const Relabeling ref = relabel(*tree, plan);
      EXPECT_THROW((void)plan.route(positive(tree->size())), CheckFailure);
      for (NodeId v = 0; v < tree->size(); ++v) {
        EXPECT_EQ(plan.shard_of(v), ref.shard_of[v]) << "v=" << v;
        EXPECT_EQ(plan.to_local(v), ref.local_id[v]) << "v=" << v;
        for (const Request r : {positive(v), negative(v), packet(v)}) {
          const engine::RoutedRequest routed = plan.route(r);
          EXPECT_EQ(routed.shard, plan.shard_of(v)) << "v=" << v;
          EXPECT_EQ(routed.local, plan.to_local(r)) << "v=" << v;
          EXPECT_EQ(routed.local, (Request{ref.local_id[v], r.sign, r.packet}))
              << "v=" << v;
        }
        // Each shard tree carries the universe's edges under the
        // relabeling. A top-level subtree root hangs off local 0, which
        // is local_id[root] whenever the plan has several shards.
        const NodeId p = tree->parent(v);
        if (p != kNoNode) {
          EXPECT_EQ(plan.shard_tree(ref.shard_of[v]).parent(ref.local_id[v]),
                    ref.local_id[p])
              << "v=" << v;
        }
      }
      for (std::size_t s = 0; s < plan.num_shards(); ++s) {
        const std::vector<NodeId>& global = ref.global_id[s];
        ASSERT_EQ(global.size(), plan.shard_tree(s).size()) << "s=" << s;
        for (NodeId l = 0; l < global.size(); ++l) {
          EXPECT_EQ(plan.to_global(s, l), global[l])
              << "s=" << s << " l=" << l;
        }
        SCOPED_TRACE(testing::Message() << "shard tree " << s);
        expect_same_tree(plan.shard_tree(s), relabeled_tree(*tree, ref, s));
      }
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
  const fib::RouterSource source(rt, router);
  std::vector<engine::EngineResult> results;
  for (const std::size_t threads : {1u, 3u}) {
    engine::ShardedEngine eng(rt.tree, "tc", params,
                              {.shards = 4, .threads = threads});
    results.push_back(eng.run_split(source.split(eng.plan())));
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
  // Every registered workload is an open loop, and the demux is what
  // shards it (most of them cannot split() themselves): each shard must
  // equal a standalone run of the substream the demux routes to it.
  Rng rng(11);
  const Tree generic_tree = trees::random_recursive(300, rng);
  const sim::Params params = smoke_params();
  const fib::RuleTree rule_tree = fib::rule_tree_from_params(params);

  for (const std::string& name : sim::WorkloadRegistry::instance().names()) {
    const Tree& tree =
        tree_for_workload(name, params, rule_tree.tree, generic_tree);
    const Trace trace = sim::make_workload(name, tree, params, 17);
    for (const std::size_t threads : {1u, 3u}) {
      SCOPED_TRACE(name + ", " + std::to_string(threads) + " threads");
      engine::ShardedEngine eng(
          tree, "tc", params,
          {.shards = 4, .threads = threads, .batch = 128});
      const auto source = sim::make_source(name, tree, params, 17);
      const engine::EngineResult sharded = eng.run(*source);
      const engine::ShardPlan& plan = eng.plan();
      ASSERT_GE(plan.num_shards(), 2u);

      Cost sum;
      for (std::size_t s = 0; s < plan.num_shards(); ++s) {
        // Reference: this shard's subsequence, remapped, run sequentially
        // on a fresh instance over the shard tree.
        Trace local;
        for (const Request& r : trace) {
          if (plan.shard_of(r.node) == s) local.push_back(plan.to_local(r));
        }
        const auto alg =
            sim::make_algorithm("tc", plan.shard_tree(s), params);
        const sim::RunResult reference = sim::run_trace(*alg, local);
        EXPECT_EQ(sharded.per_shard[s], reference) << "shard " << s;
        sum += reference.cost;
      }
      EXPECT_EQ(sharded.total.cost, sum);
      EXPECT_EQ(sharded.total.rounds, trace.size());
    }
  }
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
    const fib::RouterSource closed(rt, fib::RouterSimConfig{.packets = 200});
    testing::internal::CaptureStderr();
    (void)eng.run_split(closed.split(eng.plan()));
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

// --- Work-conserving open-loop workers -----------------------------------

/// Fills of the source the fault-injection test gates on; the probe
/// algorithm reads it to wait until the demux stands still.
std::atomic<std::uint64_t> g_gated_fills{0};

/// Wraps a registered algorithm (param `inner`, default tc) and records the
/// threads that stepped it, so a test can see shards move between workers.
/// With param `throw-at` = r > 0 its r-th step waits until the demux stops
/// filling (g_gated_fills stands still), then throws. Registered in this
/// test binary only; with the defaults it is `inner`, so the step_batch
/// suite below checks it like every other algorithm.
class ProbeAlgorithm final : public OnlineAlgorithm {
 public:
  ProbeAlgorithm(std::unique_ptr<OnlineAlgorithm> inner,
                 std::uint64_t throw_at)
      : inner_(std::move(inner)), throw_at_(throw_at) {}

  [[nodiscard]] std::string_view name() const override { return "probe"; }

  StepOutcome step(Request request) override {
    const std::thread::id self = std::this_thread::get_id();
    if (std::find(threads_.begin(), threads_.end(), self) == threads_.end()) {
      threads_.push_back(self);
    }
    if (++rounds_ == throw_at_) {
      wait_for_stalled_demux();
      throw std::runtime_error("probe: injected step failure");
    }
    return inner_->step(request);
  }

  void reset() override {
    inner_->reset();
    threads_.clear();
    rounds_ = 0;
  }
  [[nodiscard]] const Subforest& cache() const override {
    return inner_->cache();
  }
  [[nodiscard]] const Cost& cost() const override { return inner_->cost(); }

  /// Distinct threads that stepped this instance since its last reset.
  [[nodiscard]] std::size_t threads_seen() const { return threads_.size(); }

 private:
  /// Returns once g_gated_fills has not moved for 50 ms (or after 10 s):
  /// with every worker held here, the demux then sits blocked on its
  /// chunk bound.
  static void wait_for_stalled_demux() {
    using namespace std::chrono_literals;
    std::uint64_t seen = g_gated_fills.load();
    auto still_since = std::chrono::steady_clock::now();
    const auto give_up = still_since + 10s;
    while (std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(5ms);
      const std::uint64_t now = g_gated_fills.load();
      if (now != seen) {
        seen = now;
        still_since = std::chrono::steady_clock::now();
      } else if (std::chrono::steady_clock::now() - still_since >= 50ms) {
        return;
      }
    }
  }

  std::unique_ptr<OnlineAlgorithm> inner_;
  std::uint64_t throw_at_;
  std::uint64_t rounds_ = 0;
  std::vector<std::thread::id> threads_;
};

const sim::AlgorithmRegistrar kProbeRegistrar{
    "probe", "test only: an inner algorithm that records its threads",
    [](const Tree& tree, const sim::Params& params) {
      return std::make_unique<ProbeAlgorithm>(
          sim::make_algorithm(params.get("inner", "tc"), tree, params),
          params.get_u64("throw-at", 0));
    }};

/// Hands out at most `per_fill` requests of an inner stream per fill(),
/// counts its fills into g_gated_fills, and throws from fill number
/// `throw_at` (0 = never).
class GatedSource final : public RequestSource {
 public:
  GatedSource(std::unique_ptr<RequestSource> inner, std::size_t per_fill,
              std::uint64_t throw_at = 0)
      : inner_(std::move(inner)), per_fill_(per_fill), throw_at_(throw_at) {
    g_gated_fills = 0;
  }
  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override {
    if (++g_gated_fills == throw_at_) {
      throw std::runtime_error("source: injected fill failure");
    }
    return inner_->fill(buffer.first(std::min(buffer.size(), per_fill_)));
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<RequestSource> inner_;
  std::size_t per_fill_;
  std::uint64_t throw_at_;
};

TEST(ShardedEngine, ShardsMoveBetweenWorkersAndMatchSequentialRuns) {
  // Small chunks and uneven worker counts make idle workers take shards
  // that other workers ran before. Every algorithm's per-shard results must
  // still equal independent sequential runs of each shard's subsequence,
  // on a uniform stream and on one where shard 5 takes most requests.
  const Tree tree = trees::complete_kary(4, 8);
  const engine::ShardPlan plan(tree, 8);
  ASSERT_EQ(plan.num_shards(), 8u);
  std::vector<NodeId> hot;
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (plan.shard_of(v) == 5) hot.push_back(v);
  }
  Rng rng(37);
  Trace uniform;
  Trace skewed;
  for (std::size_t i = 0; i < 12000; ++i) {
    const Sign sign = rng.chance(0.2) ? Sign::kNegative : Sign::kPositive;
    uniform.push_back({static_cast<NodeId>(rng.below(tree.size())), sign});
    const NodeId v = rng.chance(0.8)
                         ? rng.pick(hot)
                         : static_cast<NodeId>(rng.below(tree.size()));
    skewed.push_back({v, sign});
  }

  struct Geometry {
    std::size_t threads;
    std::size_t batch;
  };
  const Geometry geometries[] = {{2, 16}, {3, 37}, {5, 64}};
  for (const std::string& algorithm :
       sim::AlgorithmRegistry::instance().names()) {
    if (algorithm == "probe") continue;
    sim::Params params = engine_params();
    params.set("inner", algorithm);
    for (const auto& [stream_name, trace] :
         {std::pair{"uniform", &uniform}, std::pair{"skewed", &skewed}}) {
      std::vector<sim::RunResult> reference;
      for (std::size_t s = 0; s < plan.num_shards(); ++s) {
        Trace local;
        for (const Request& r : *trace) {
          if (plan.shard_of(r.node) == s) local.push_back(plan.to_local(r));
        }
        const auto alg =
            sim::make_algorithm(algorithm, plan.shard_tree(s), params);
        reference.push_back(sim::run_trace(*alg, local));
      }
      for (const Geometry& g : geometries) {
        SCOPED_TRACE(algorithm + " x " + stream_name + " x " +
                     std::to_string(g.threads) + " threads");
        engine::ShardedEngine eng(
            tree, "probe", params,
            {.shards = 8, .threads = g.threads, .batch = g.batch});
        TraceSource source{std::span<const Request>(*trace)};
        const engine::EngineResult result = eng.run(source);
        EXPECT_EQ(result.threads, g.threads);
        ASSERT_EQ(result.per_shard.size(), reference.size());
        std::size_t moved = 0;
        for (std::size_t s = 0; s < reference.size(); ++s) {
          EXPECT_EQ(result.per_shard[s], reference[s]) << "shard " << s;
          const auto& probe =
              dynamic_cast<const ProbeAlgorithm&>(eng.algorithm(s));
          if (probe.threads_seen() > 1) ++moved;
        }
        EXPECT_EQ(result.total.rounds, trace->size());
        // How often shards moved depends on the scheduler and the cores
        // available, so it is printed, never asserted.
        std::printf("[ moved    ] %s %s %zu threads: %zu of 8 shards ran on "
                    "more than one worker\n",
                    algorithm.c_str(), stream_name, g.threads, moved);
      }
    }
  }
}

TEST(ShardedEngine, WorkerThrowWakesTheDemuxBlockedOnTheBound) {
  // Every worker's first step holds until the demux stops filling — it is
  // then blocked on the full chunk bound — and throws. run() must wake the
  // demux, join every worker and rethrow, having generated only what the
  // bound let through.
  const Tree tree = trees::complete_kary(4, 8);
  sim::Params params = engine_params();
  params.set("length", "200000");
  params.set("throw-at", "1");
  engine::ShardedEngine eng(tree, "probe", params,
                            {.shards = 8, .threads = 2, .batch = 16});
  GatedSource source(sim::make_source("uniform", tree, params, 5), 16);
  try {
    (void)eng.run(source);
    ADD_FAILURE() << "run() returned despite a throwing worker";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "probe: injected step failure");
  }
  EXPECT_LT(g_gated_fills.load() * 16, 200000u);
}

TEST(ShardedEngine, SourceThrowMidStreamJoinsWorkersAndRethrows) {
  const Tree tree = trees::complete_kary(4, 8);
  const sim::Params params = engine_params();
  engine::ShardedEngine eng(tree, "tc", params,
                            {.shards = 8, .threads = 3, .batch = 16});
  GatedSource failing(sim::make_source("uniform", tree, params, 9), 64,
                      /*throw_at=*/40);
  try {
    (void)eng.run(failing);
    ADD_FAILURE() << "run() returned despite a throwing source";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "source: injected fill failure");
  }
  EXPECT_EQ(g_gated_fills.load(), 40u);

  // The engine stays usable: a clean run matches a fresh engine's.
  GatedSource clean(sim::make_source("uniform", tree, params, 9), 64);
  const engine::EngineResult again = eng.run(clean);
  engine::ShardedEngine fresh(tree, "tc", params,
                              {.shards = 8, .threads = 3, .batch = 16});
  const auto source = sim::make_source("uniform", tree, params, 9);
  const engine::EngineResult expected = fresh.run(*source);
  EXPECT_EQ(again.total, expected.total);
  for (std::size_t s = 0; s < expected.per_shard.size(); ++s) {
    EXPECT_EQ(again.per_shard[s], expected.per_shard[s]) << "shard " << s;
  }
}

// --- step_batch ≡ scalar step --------------------------------------------

struct OutcomeDigest {
  bool paid = false;
  ChangeKind change = ChangeKind::kNone;
  std::vector<NodeId> changed;
  std::vector<NodeId> also_evicted;
  std::vector<NodeId> aborted_fetch;

  friend bool operator==(const OutcomeDigest&,
                         const OutcomeDigest&) = default;
};

OutcomeDigest digest(const StepOutcome& out) {
  return OutcomeDigest{
      out.paid, out.change,
      std::vector<NodeId>(out.changed.begin(), out.changed.end()),
      std::vector<NodeId>(out.also_evicted.begin(), out.also_evicted.end()),
      std::vector<NodeId>(out.aborted_fetch.begin(), out.aborted_fetch.end())};
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
      const Tree& tree =
          tree_for_workload(w_name, params, rule_tree.tree, generic_tree);
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

/// Records each outcome's digest and accounts it as run_source and
/// run_split do.
class AccountingRecorder final : public OutcomeSink {
 public:
  explicit AccountingRecorder(const OnlineAlgorithm& alg)
      : accounting_(result, alg, nullptr) {}
  void on_outcome(const Request& request,
                  const StepOutcome& outcome) override {
    digests.push_back(digest(outcome));
    accounting_.on_outcome(request, outcome);
  }

  sim::RunResult result;
  std::vector<OutcomeDigest> digests;

 private:
  sim::AccountingSink accounting_;
};

TEST(StepBatch, PacketsAreTheSwitchLookupInTheInstancesCache) {
  // A packet is the switch's lookup (Figure 1). After every request of a
  // stream, each registered algorithm gets a packet through step_batch,
  // and a twin sees the stream alone: a cached packet must hand the sink
  // an unpaid kNone outcome and leave the instance as the twin is (so no
  // recency moves: LRU's later evictions would part from the twin's; nor
  // does TC's round counter), and an uncached one must act as the twin's
  // positive(node). The accounting sink counts a round for the miss and
  // none for the hit.
  Rng rng(23);
  const Tree tree = trees::random_recursive(30, rng);
  const sim::Params params = smoke_params();
  const Trace trace = sim::make_workload("zipf", tree, params, 43);
  const OutcomeDigest hit_digest = digest(StepOutcome{});

  for (const std::string& alg_name :
       sim::AlgorithmRegistry::instance().names()) {
    SCOPED_TRACE(alg_name);
    const auto alg = sim::make_algorithm(alg_name, tree, params);
    const auto twin = sim::make_algorithm(alg_name, tree, params);
    AccountingRecorder sink(*alg);
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      alg->step_batch({&trace[i], 1}, sink);
      ASSERT_EQ(sink.digests.back(), digest(twin->step(trace[i])))
          << "round " << i + 1;
      // A Zipf-popular node, cached or not by now.
      const NodeId v = trace[(7 * i + 3) % trace.size()].node;
      const bool cached = alg->cache().contains(v);
      const std::uint64_t rounds = sink.result.rounds;
      const Request lookup = packet(v);
      alg->step_batch({&lookup, 1}, sink);
      if (cached) {
        ++hits;
        ASSERT_EQ(sink.digests.back(), hit_digest) << "hit after " << i + 1;
        ASSERT_EQ(sink.result.rounds, rounds);
      } else {
        ++misses;
        ASSERT_EQ(sink.digests.back(), digest(twin->step(positive(v))))
            << "miss after " << i + 1;
        ASSERT_EQ(sink.result.rounds, rounds + 1);
      }
      ASSERT_EQ(alg->cost(), twin->cost());
      ASSERT_EQ(alg->cache().as_vector(), twin->cache().as_vector());
      if (const auto* tc = dynamic_cast<const TreeCache*>(alg.get())) {
        ASSERT_EQ(tc->round(), dynamic_cast<const TreeCache&>(*twin).round());
      }
    }
    EXPECT_EQ(sink.result.rounds, trace.size() + misses);
    EXPECT_GT(misses, 0u);
    // Every algorithm that ever caches meets some of its packets cached.
    if (sink.result.max_cache_size > 0) {
      EXPECT_GT(hits, 0u);
    }
  }
}

}  // namespace
}  // namespace treecache
