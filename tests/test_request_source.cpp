// The RequestSource API: adapters, materialization, combinators, and the
// two guarantees the streaming redesign rests on — every registered
// workload replays identically after reset(), and driving an algorithm
// from the stream is bit-identical to driving it from the materialized
// trace.
#include "core/request_source.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "engine/shard_plan.hpp"
#include "fib/fib_workloads.hpp"
#include "rib/workloads.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_builder.hpp"
#include "workload/combinators.hpp"
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

Trace ones(std::size_t count, NodeId node) {
  return Trace(count, positive(node));
}

TEST(TraceSourceAdapter, StreamsOwnsAndResets) {
  const Trace trace{positive(1), negative(2), positive(0)};
  TraceSource source{Trace(trace)};
  std::array<Request, 2> buffer{};
  ASSERT_EQ(source.fill(buffer), 2u);
  EXPECT_EQ(buffer[0], positive(1));
  EXPECT_EQ(buffer[1], negative(2));
  ASSERT_EQ(source.fill(buffer), 1u);
  EXPECT_EQ(buffer[0], positive(0));
  EXPECT_EQ(source.fill(buffer), 0u);
  EXPECT_EQ(source.fill(buffer), 0u);  // stays exhausted
  source.reset();
  EXPECT_EQ(materialize(source), trace);
}

TEST(TraceSourceAdapter, BorrowingViewMatchesOwning) {
  const Trace trace{positive(4), positive(2), negative(4)};
  TraceSource borrowed{std::span<const Request>(trace)};
  EXPECT_EQ(materialize(borrowed), trace);
}

TEST(MaterializeHelper, HonorsRequestLimit) {
  TraceSource source(ones(100, 1));
  EXPECT_EQ(materialize(source, 7).size(), 7u);
  // The limit consumed only 7; the rest is still there.
  EXPECT_EQ(materialize(source).size(), 93u);
}

TEST(FileTraceSourceTest, StreamsFileAndResets) {
  const Tree tree = trees::path(6);
  Rng rng(3);
  const Trace trace = workload::uniform_trace(tree, 200, 0.4, rng);
  const std::string path = "/tmp/treecache_test_source_trace.txt";
  {
    std::ofstream out(path);
    save_trace(out, trace);
  }
  FileTraceSource source(path, tree.size());
  EXPECT_EQ(materialize(source), trace);
  source.reset();
  EXPECT_EQ(materialize(source), trace);
  std::remove(path.c_str());
}

TEST(FileTraceSourceTest, MissingFileThrows) {
  EXPECT_THROW(FileTraceSource("/nonexistent/trace.txt", 4), CheckFailure);
}

TEST(TraceParsing, ErrorsCarryLineNumbers) {
  const auto message_of = [](const std::string& text) -> std::string {
    std::istringstream in(text);
    try {
      (void)load_trace(in, 5);
    } catch (const CheckFailure& e) {
      return e.what();
    }
    return {};
  };
  // Malformed sign on (physical) line 3; the blank line still counts.
  const std::string bad_sign = message_of("+1\n\n?3\n");
  EXPECT_NE(bad_sign.find("line 3"), std::string::npos) << bad_sign;
  EXPECT_NE(bad_sign.find("?3"), std::string::npos) << bad_sign;
  // Trailing garbage after the node id.
  const std::string garbage = message_of("+1\n-2 x\n");
  EXPECT_NE(garbage.find("line 2"), std::string::npos) << garbage;
  // Out-of-range node names the tree size.
  const std::string range = message_of("+7\n");
  EXPECT_NE(range.find("line 1"), std::string::npos) << range;
  EXPECT_NE(range.find("outside the tree"), std::string::npos) << range;
  // A sign with no digits is malformed, not node 0.
  EXPECT_NE(message_of("+\n").find("line 1"), std::string::npos);
  // Well-formed input still parses.
  std::istringstream ok("+1\n-2\n\n+0\n");
  EXPECT_EQ(load_trace(ok, 5),
            (Trace{positive(1), negative(2), positive(0)}));
}

// --- The central guarantees, over every registered workload. ------------

TEST(RegisteredWorkloads, ResetReplaysTheIdenticalStream) {
  Rng rng(11);
  const Tree generic_tree = trees::random_recursive(40, rng);
  const sim::Params params = smoke_params();
  const fib::RuleTree rule_tree = fib::rule_tree_from_params(params);

  for (const std::string& name : sim::WorkloadRegistry::instance().names()) {
    SCOPED_TRACE("workload: " + name);
    const Tree& tree =
        tree_for_workload(name, params, rule_tree.tree, generic_tree);
    const auto source = sim::make_source(name, tree, params, 21);
    const Trace first = materialize(*source);
    ASSERT_FALSE(first.empty());
    source->reset();
    EXPECT_EQ(materialize(*source), first);
  }
}

// Property test for RequestSource::split over the registered workloads that
// can fork (uniform, zipf, zipfleaf): the per-shard streams are exactly the
// stable partition of the unsharded stream by owning shard — so their
// concatenation is a permutation of it — each part replays identically
// after reset(), and split() is independent of how far the parent has been
// consumed. Every other workload cannot fork, so its split() is empty; the
// engine's demux shards those (ShardedEngine.
// EqualsIndependentPerShardSequentialRuns in tests/test_engine.cpp).
TEST(RegisteredWorkloads, SplitPartitionsEveryStreamByShard) {
  const std::set<std::string> forkable = {"uniform", "zipf", "zipfleaf"};
  Rng rng(29);
  const Tree generic_tree = trees::random_recursive(60, rng);
  const sim::Params params = smoke_params();
  const fib::RuleTree rule_tree = fib::rule_tree_from_params(params);

  for (const std::string& name : sim::WorkloadRegistry::instance().names()) {
    SCOPED_TRACE("workload: " + name);
    const Tree& tree =
        tree_for_workload(name, params, rule_tree.tree, generic_tree);
    const engine::ShardPlan plan(tree, 4);
    ASSERT_GE(plan.num_shards(), 2u);

    const auto source = sim::make_source(name, tree, params, 21);
    const Trace whole = materialize(*source);
    ASSERT_FALSE(whole.empty());

    // Every registered workload is an open loop, so split_kind() advises
    // a replicated split; it is empty unless the source can fork.
    EXPECT_EQ(source->split_kind(), SplitKind::kReplicated);
    if (!forkable.contains(name)) {
      EXPECT_EQ(source->fork(), nullptr);
      EXPECT_TRUE(source->split(plan).empty());
      continue;
    }

    // Splitting AFTER the parent was drained: parts replay from round one
    // regardless of the parent's position.
    const auto parts = source->split(plan);
    ASSERT_EQ(parts.size(), plan.num_shards());

    std::vector<Trace> expected(plan.num_shards());
    for (const Request& r : whole) {
      expected[plan.shard_of(r.node)].push_back(plan.to_local(r));
    }
    std::size_t total = 0;
    for (std::size_t s = 0; s < parts.size(); ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      const Trace got = materialize(*parts[s]);
      EXPECT_EQ(got, expected[s]);
      total += got.size();
      // reset() replays the identical per-shard stream.
      parts[s]->reset();
      EXPECT_EQ(materialize(*parts[s]), expected[s]);
    }
    // Conservation: nothing dropped, nothing double-routed.
    EXPECT_EQ(total, whole.size());
  }
}

TEST(RegisteredWorkloads, SplitKindAdvisesHowEachSourceScalesOut) {
  // Open-loop sources default to fork-per-shard replication — advisory
  // only: a source that cannot fork replicates nothing...
  const Tree tree = trees::complete_kary(2, 3);
  const engine::ShardPlan plan(tree, 3);
  TraceSource open(ones(3, 1));
  EXPECT_EQ(open.split_kind(), SplitKind::kReplicated);
  EXPECT_TRUE(open.split(plan).empty());

  // ...and a closed loop without a split() override is honest about being
  // unshardable.
  class ClosedStub final : public RequestSource {
   public:
    [[nodiscard]] std::size_t fill(std::span<Request>) override { return 0; }
    void reset() override {}
    [[nodiscard]] bool is_closed_loop() const override { return true; }
  };
  ClosedStub closed;
  EXPECT_EQ(closed.split_kind(), SplitKind::kUnsplittable);
  EXPECT_TRUE(closed.split(plan).empty());
}

/// FNV-1a-64 over each request's node (4 bytes, little-endian) and sign.
std::uint64_t stream_digest(const Trace& trace) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint8_t byte) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  };
  for (const Request& r : trace) {
    for (int shift = 0; shift < 32; shift += 8) {
      mix(static_cast<std::uint8_t>(r.node >> shift));
    }
    mix(static_cast<std::uint8_t>(r.sign));
  }
  return hash;
}

// Every seeded stream, pinned request for request. A sampler that draws
// the right distribution but different ranks (a reordered CDF, a changed
// search, an extra uniform01() per draw) keeps every statistical test
// green and fails here. The goldens were recorded with the binary-search
// Zipf sampler; a new registered workload needs its own entry.
TEST(RegisteredWorkloads, SeededStreamsArePinned) {
  const std::map<std::string, std::uint64_t> golden = {
      {"churn", 0x8868c91771f334baULL},
      {"churn-inject", 0xf713c97a922c70d1ULL},
      {"concat", 0x2899d6e427d3466aULL},
      {"fib", 0xe6753b13ff6015a9ULL},
      {"fib-churn", 0xa31424591388de06ULL},
      {"fib-real", 0x2a7404edc78c3aa4ULL},
      {"fib-stable", 0x19554dcf03ecddffULL},
      {"hotspot", 0xa7f198a0a351c364ULL},
      {"mix", 0x79145fdecc2fb0a4ULL},
      {"uniform", 0x68a05ffbe4845d0aULL},
      {"zipf", 0x31047aa090470160ULL},
      {"zipfleaf", 0x67e58ea124e2d5d7ULL},
  };
  Rng rng(41);
  const Tree generic_tree = trees::random_recursive(256, rng);
  const sim::Params params = smoke_params();
  const fib::RuleTree rule_tree = fib::rule_tree_from_params(params);

  for (const std::string& name : sim::WorkloadRegistry::instance().names()) {
    SCOPED_TRACE("workload: " + name);
    const Tree& tree =
        tree_for_workload(name, params, rule_tree.tree, generic_tree);
    const auto source = sim::make_source(name, tree, params, 21);
    const std::uint64_t digest = stream_digest(materialize(*source));
    const auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden digest for " << name << " (digest 0x"
                    << std::hex << digest << ")";
      continue;
    }
    EXPECT_EQ(digest, it->second) << std::hex << "0x" << digest;
  }
  EXPECT_EQ(golden.size(), sim::WorkloadRegistry::instance().names().size())
      << "a golden names a workload that is no longer registered";

  // fib-real over the IPv6 fixture: the 128-bit instantiation of the
  // packet sampler and the rule tree's descent.
  sim::Params params6 = params;
  params6.set("rib-feed",
              std::string(TREECACHE_TEST_DATA_DIR) + "/rib_v6.feed");
  params6.set("family", "6");
  const auto source6 = sim::make_source(
      "fib-real", rib::shared_real_fib(params6).tree(), params6, 21);
  const std::uint64_t digest6 = stream_digest(materialize(*source6));
  EXPECT_EQ(digest6, 0x767f94aaf3829e3eULL) << std::hex << "0x" << digest6;
}

TEST(RegisteredWorkloads, StreamedAndMaterializedRunsAreIdentical) {
  Rng rng(13);
  const Tree generic_tree = trees::random_recursive(40, rng);
  const sim::Params params = smoke_params();
  const fib::RuleTree rule_tree = fib::rule_tree_from_params(params);

  for (const std::string& name : sim::WorkloadRegistry::instance().names()) {
    SCOPED_TRACE("workload: " + name);
    const Tree& tree =
        tree_for_workload(name, params, rule_tree.tree, generic_tree);

    const auto streamed_alg = sim::make_algorithm("tc", tree, params);
    const auto source = sim::make_source(name, tree, params, 33);
    const auto streamed = sim::run_source(*streamed_alg, *source);

    const auto materialized_alg = sim::make_algorithm("tc", tree, params);
    const Trace trace = sim::make_workload(name, tree, params, 33);
    const auto materialized = sim::run_trace(*materialized_alg, trace);

    EXPECT_EQ(streamed, materialized);
    EXPECT_EQ(streamed.rounds, trace.size());
  }
}

// --- Combinators. --------------------------------------------------------

TEST(Combinators, ConcatPlaysPartsInOrder) {
  std::vector<std::unique_ptr<RequestSource>> parts;
  parts.push_back(std::make_unique<TraceSource>(ones(3, 1)));
  parts.push_back(std::make_unique<TraceSource>(ones(2, 2)));
  workload::ConcatSource concat(std::move(parts));
  const Trace expected{positive(1), positive(1), positive(1), positive(2),
                       positive(2)};
  EXPECT_EQ(materialize(concat), expected);
  concat.reset();
  EXPECT_EQ(materialize(concat), expected);
}

TEST(Combinators, MixDrainsEveryPartExactly) {
  std::vector<std::unique_ptr<RequestSource>> parts;
  parts.push_back(std::make_unique<TraceSource>(ones(30, 1)));
  parts.push_back(std::make_unique<TraceSource>(ones(10, 2)));
  workload::MixSource mix(std::move(parts), {3.0, 1.0}, Rng(5));
  const Trace first = materialize(mix);
  ASSERT_EQ(first.size(), 40u);
  std::size_t from_first = 0;
  for (const Request& r : first) from_first += r.node == 1 ? 1u : 0u;
  EXPECT_EQ(from_first, 30u);
  // Interleaved, not concatenated: part 2 shows up before part 1 runs dry.
  bool early_two = false;
  for (std::size_t i = 0; i < 20; ++i) early_two |= first[i].node == 2;
  EXPECT_TRUE(early_two);
  mix.reset();
  EXPECT_EQ(materialize(mix), first);
}

TEST(Combinators, ChurnInjectInsertsAlphaChunks) {
  const Tree tree = trees::path(4);
  workload::ChurnInjectSource source(
      std::make_unique<TraceSource>(ones(10, 3)), tree, /*period=*/4,
      /*alpha=*/3, Rng(9));
  const Trace trace = materialize(source);
  ASSERT_EQ(trace.size(), 16u);  // 10 inner + 2 chunks of 3
  std::size_t negatives = 0;
  for (const Request& r : trace) negatives += r.sign == Sign::kNegative;
  EXPECT_EQ(negatives, 6u);
  // Chunks sit after the 4th and 8th inner request, each 3 identical
  // negatives to one node.
  for (const std::size_t begin : {4u, 11u}) {
    for (std::size_t i = begin; i < begin + 3; ++i) {
      EXPECT_EQ(trace[i].sign, Sign::kNegative) << "index " << i;
      EXPECT_EQ(trace[i].node, trace[begin].node) << "index " << i;
    }
  }
  source.reset();
  EXPECT_EQ(materialize(source), trace);
}

TEST(Combinators, ClosedLoopPartsAreRejected) {
  // A combinator is an open loop, so the engine would demux it and drop
  // the feedback a closed-loop part depends on: every constructor refuses
  // one, wherever it sits among the parts.
  class ClosedStub final : public RequestSource {
   public:
    [[nodiscard]] std::size_t fill(std::span<Request>) override { return 0; }
    void reset() override {}
    [[nodiscard]] bool is_closed_loop() const override { return true; }
  };
  const auto parts = [](bool closed_first) {
    std::vector<std::unique_ptr<RequestSource>> out;
    out.push_back(std::make_unique<TraceSource>(ones(3, 1)));
    out.insert(closed_first ? out.begin() : out.end(),
               std::make_unique<ClosedStub>());
    return out;
  };
  for (const bool closed_first : {true, false}) {
    SCOPED_TRACE(closed_first);
    EXPECT_THROW(workload::ConcatSource(parts(closed_first)), CheckFailure);
    EXPECT_THROW(workload::MixSource(parts(closed_first), {1.0, 1.0}, Rng(5)),
                 CheckFailure);
  }
  const Tree tree = trees::path(4);
  EXPECT_THROW(workload::ChurnInjectSource(std::make_unique<ClosedStub>(),
                                           tree, /*period=*/4, /*alpha=*/3,
                                           Rng(9)),
               CheckFailure);
}

TEST(Combinators, RegisteredNamesRunThroughTheScenarioEngine) {
  Rng rng(23);
  const Tree tree = trees::random_recursive(30, rng);
  sim::Params params = smoke_params();
  params.set("parts", "zipf,hotspot");
  params.set("weights", "2,1");
  for (const std::string name : {"concat", "mix"}) {
    SCOPED_TRACE(name);
    const auto result = sim::run_scenario(
        tree, {.algorithm = "tc", .workload = name, .params = params,
               .seed = 3});
    // concat and mix split `length` across their parts exactly.
    EXPECT_EQ(result.run.rounds, 600u);
  }
  params.set("inner", "zipfleaf");
  params.set("churn-period", "100");
  const auto churned = sim::run_scenario(
      tree, {.algorithm = "tc", .workload = "churn-inject", .params = params,
             .seed = 3});
  // 600 inner requests + 6 injected chunks of alpha=3 negatives.
  EXPECT_EQ(churned.run.rounds, 600u + 6u * 3u);
}

TEST(Combinators, SelfNestingIsRejected) {
  const Tree tree = trees::path(5);
  sim::Params params;
  params.set("parts", "concat");
  EXPECT_THROW((void)sim::make_source("concat", tree, params, 1),
               CheckFailure);
  params.set("parts", "mix");
  EXPECT_THROW((void)sim::make_source("mix", tree, params, 1), CheckFailure);
  sim::Params churn;
  churn.set("inner", "churn-inject");
  EXPECT_THROW((void)sim::make_source("churn-inject", tree, churn, 1),
               CheckFailure);
}

TEST(Combinators, ComposeAcrossLevels) {
  // A combinator may name another combinator as a part — only itself is
  // forbidden. mix-of-concat must stream and replay like everything else.
  Rng rng(29);
  const Tree tree = trees::random_recursive(20, rng);
  sim::Params params = smoke_params();
  params.set("parts", "concat,uniform");
  const auto source = sim::make_source("mix", tree, params, 7);
  const Trace first = materialize(*source);
  EXPECT_EQ(first.size(), 600u);
  source->reset();
  EXPECT_EQ(materialize(*source), first);
}

}  // namespace
}  // namespace treecache
