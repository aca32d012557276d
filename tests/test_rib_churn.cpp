// The fib-real replay path end to end over the checked-in fixture feeds:
// ingest, the churn's resolution to rule-tree nodes (against exact()),
// stream shape, source determinism (reset and the registry),
// bit-identical engine runs across shard and thread geometries, and the
// Appendix B canonicalization bound on a real-churn IPv6 trace — the
// wide-key wind through rule_tree, the packet sampler and canonicalizer.
#include "rib/churn_source.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/tree_cache.hpp"
#include "engine/sharded_engine.hpp"
#include "fib/canonicalizer.hpp"
#include "rib/ingest.hpp"
#include "rib/workloads.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_builder.hpp"

namespace treecache::rib {
namespace {

std::string fixture(const char* name) {
  return std::string(TREECACHE_TEST_DATA_DIR) + "/" + name;
}

sim::Params real_params(const char* feed_name, int family) {
  sim::Params p;
  p.set("alpha", "4");
  p.set("capacity", "16");
  p.set("rib-feed", fixture(feed_name));
  p.set("family", std::to_string(family));
  p.set("lookups-per-event", "8");
  return p;
}

TEST(FixtureFeeds, IngestEndToEnd) {
  const IngestResult both =
      ingest_feed({fixture("rib_v4.feed"), fixture("rib_v6.feed")});
  EXPECT_EQ(both.records, both.v4.stats.dump_routes + both.v4.stats.updates() +
                              both.v6.stats.dump_routes +
                              both.v6.stats.updates());
  for (const auto* family : {"v4", "v6"}) {
    SCOPED_TRACE(family);
    const IngestStats& stats =
        family == std::string("v4") ? both.v4.stats : both.v6.stats;
    EXPECT_GT(stats.dump_routes, 0u);
    EXPECT_GT(stats.announces, 0u);
    EXPECT_GT(stats.withdraws, 0u);
    EXPECT_EQ(stats.withdraw_misses, 0u);  // generator withdraws live only
  }
  // The live table: dump + new announces - withdraws.
  EXPECT_EQ(both.v4.rib.size(),
            both.v4.stats.dump_routes + both.v4.stats.announces -
                both.v4.stats.replaced_routes - both.v4.stats.withdraws);
  // Each family's records landed only in its own table.
  EXPECT_FALSE(both.v4.empty());
  EXPECT_FALSE(both.v6.empty());

  // The replay tree holds every entry (live or withdrawn) and every churned
  // prefix: every churn event resolves in the replay.
  const ChurnReplay replay = make_churn_replay(both.v4);
  EXPECT_EQ(replay.churn_nodes.size(), both.v4.stats.updates());
  EXPECT_GE(both.v4.rib.entry_count(), both.v4.rib.size());
  // No withdraw missed, so the churn names no prefix beyond the entries;
  // node 0 is the artificial default rule.
  EXPECT_EQ(replay.fib.tree.size(), both.v4.rib.entry_count() + 1);
  for (const fib::Prefix& p : both.v4.rib.entries()) {
    EXPECT_TRUE(replay.fib.exact(p).has_value()) << p.to_string();
  }
  for (const NodeId node : replay.churn_nodes) {
    ASSERT_LT(node, replay.fib.tree.size());
  }
}

/// make_churn_replay resolves the churn by one merge over the node ids;
/// exact() is the oracle for every event.
template <typename PrefixT>
void expect_churn_resolves_as_exact(const BasicIngest<PrefixT>& ingest) {
  const BasicChurnReplay<PrefixT> replay = make_churn_replay(ingest);
  ASSERT_EQ(replay.churn_nodes.size(), ingest.churn.size());
  for (std::size_t i = 0; i < ingest.churn.size(); ++i) {
    const auto node = replay.fib.exact(ingest.churn[i]);
    ASSERT_TRUE(node.has_value()) << ingest.churn[i].to_string();
    ASSERT_EQ(replay.churn_nodes[i], *node) << ingest.churn[i].to_string();
  }
}

/// Appends a withdraw of `never` (a prefix no route ever held) and three
/// announce/withdraw rounds of `again` to `result`'s churn. Both come by
/// value: `again` may be an element of the churn this appends to.
template <typename PrefixT>
void add_odd_churn(IngestResult& result, PrefixT never, PrefixT again) {
  const auto record = [](FeedOp op, const PrefixT& p) {
    FeedRecord r{.timestamp = 1, .next_hop = 7, .op = op};
    if constexpr (std::is_same_v<PrefixT, fib::Prefix6>) {
      r.v6 = true;
      r.prefix6 = p;
    } else {
      r.prefix4 = p;
    }
    return r;
  };
  result.apply(record(FeedOp::kWithdraw, never));
  for (int round = 0; round < 3; ++round) {
    result.apply(record(FeedOp::kAnnounce, again));
    result.apply(record(FeedOp::kWithdraw, again));
  }
}

TEST(ChurnReplay, MergeResolvesEveryEventAsExactDoes) {
  // IPv4 at 70k routes: the generator's prefixes stop at /24, so a /28
  // never held a route.
  SyntheticFeedConfig config;
  config.routes = 70000;
  config.updates = 9000;
  config.family = 4;
  Rng rng(23);
  IngestResult v4;
  for (const FeedRecord& record : generate_feed(config, rng)) {
    v4.apply(record);
  }
  const std::uint64_t misses = v4.v4.stats.withdraw_misses;
  add_odd_churn(v4, fib::Prefix::parse("198.51.100.16/28"),
                v4.v4.churn.front());
  EXPECT_EQ(v4.v4.stats.withdraw_misses, misses + 1);
  expect_churn_resolves_as_exact(v4.v4);

  // IPv6 fixture: its prefixes stop at /64.
  IngestResult v6 = ingest_feed({fixture("rib_v6.feed")});
  ASSERT_FALSE(v6.v6.churn.empty());
  add_odd_churn(v6, fib::Prefix6::parse("2001:db8::10:0/112"),
                v6.v6.churn.back());
  expect_churn_resolves_as_exact(v6.v6);
}

TEST(FixtureFeeds, FamilyWithNoRecordsIsRefused) {
  EXPECT_THROW((void)build_real_fib(real_params("rib_v4.feed", 6)),
               CheckFailure);
  EXPECT_THROW((void)build_real_fib(real_params("rib_v6.feed", 4)),
               CheckFailure);
}

TEST(ChurnSource, StreamShapeIsLookupsThenAlphaChunks) {
  const sim::Params params = real_params("rib_v4.feed", 4);
  const RealFibReplay& replay = shared_real_fib(params);
  const ChurnReplayConfig config{
      .lookups_per_event = 8, .tail_lookups = 5, .zipf_skew = 1.0,
      .alpha = 4};
  RibChurnSource source(replay.v4, config, Rng(3));

  const std::uint64_t events = replay.churn_events();
  const std::uint64_t expected =
      events * (config.lookups_per_event + config.alpha) +
      config.tail_lookups;
  const Trace trace = materialize(source);
  ASSERT_EQ(trace.size(), expected);

  const std::size_t stride = config.lookups_per_event + config.alpha;
  for (std::uint64_t e = 0; e < events; ++e) {
    const std::size_t base = e * stride;
    for (std::size_t i = 0; i < config.lookups_per_event; ++i) {
      ASSERT_EQ(trace[base + i].sign, Sign::kPositive) << "event " << e;
    }
    // The α-chunk: alpha negatives, all to the churned rule's node.
    const NodeId chunk_node = trace[base + config.lookups_per_event].node;
    for (std::size_t i = 0; i < config.alpha; ++i) {
      const Request& r = trace[base + config.lookups_per_event + i];
      ASSERT_EQ(r.sign, Sign::kNegative) << "event " << e;
      ASSERT_EQ(r.node, chunk_node) << "event " << e;
    }
  }
  for (std::size_t i = trace.size() - config.tail_lookups; i < trace.size();
       ++i) {
    EXPECT_EQ(trace[i].sign, Sign::kPositive);
  }
}

TEST(ChurnSource, ResetAndRegistryReplayIdentically) {
  const sim::Params params = real_params("rib_v4.feed", 4);
  const RealFibReplay& replay = shared_real_fib(params);
  const Tree& tree = replay.tree();

  const auto source = sim::make_source("fib-real", tree, params, 21);
  const Trace first = materialize(*source);
  ASSERT_FALSE(first.empty());
  source->reset();
  EXPECT_EQ(materialize(*source), first);

  // reset() replays the identical stream even mid-consumption.
  (void)materialize(*source, first.size() / 3);
  source->reset();
  EXPECT_EQ(materialize(*source), first);

  // A different seed is a different permutation/stream (the substrate is
  // shared; the traffic is not).
  const auto reseeded = sim::make_source("fib-real", tree, params, 22);
  EXPECT_NE(materialize(*reseeded), first);

  // The registered factory refuses a tree that is not the replay tree.
  Rng rng(5);
  const Tree other = trees::random_recursive(tree.size(), rng);
  EXPECT_THROW((void)sim::make_source("fib-real", other, params, 21),
               CheckFailure);
}

TEST(ChurnSource, Ipv6StreamReplaysAndResolvesInTree) {
  const sim::Params params = real_params("rib_v6.feed", 6);
  const RealFibReplay& replay = shared_real_fib(params);
  EXPECT_EQ(replay.family, 6);
  const Tree& tree = replay.tree();

  const auto source = sim::make_source("fib-real", tree, params, 9);
  const Trace first = materialize(*source);
  ASSERT_FALSE(first.empty());
  for (const Request& r : first) {
    ASSERT_LT(r.node, tree.size());
  }
  source->reset();
  EXPECT_EQ(materialize(*source), first);
}

TEST(ChurnSource, PureSnapshotFeedStillProducesLookups) {
  // A dump with no updates has no churn events; the tail-lookups default
  // keeps the stream non-empty (all positive).
  sim::Params params = real_params("rib_v4.feed", 4);
  const RealFibReplay& replay = shared_real_fib(params);
  ChurnReplay snapshot{replay.v4->fib, {}};
  RibChurnSource source(std::make_shared<const ChurnReplay>(snapshot),
                        churn_config_from_params(params, false), Rng(2));
  const Trace trace = materialize(source);
  ASSERT_FALSE(trace.empty());
  for (const Request& r : trace) {
    ASSERT_EQ(r.sign, Sign::kPositive);
  }
}

TEST(Engine, FibRealIsBitIdenticalAcrossGeometries) {
  const sim::Params params = real_params("rib_v4.feed", 4);
  const RealFibReplay& replay = shared_real_fib(params);
  const Tree& tree = replay.tree();

  // Same shard plan, varying worker threads: per-shard results must be
  // bit-identical (the engine's determinism contract over the fib-real
  // split). The source replays from the same seed each run.
  std::vector<engine::EngineResult> results;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    engine::ShardedEngine eng(tree, "tc", params,
                              {.shards = 8, .threads = threads,
                               .batch = 128});
    const auto source = sim::make_source("fib-real", tree, params, 77);
    results.push_back(eng.run(*source));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].total, results[0].total) << "run " << i;
    ASSERT_EQ(results[i].per_shard.size(), results[0].per_shard.size());
    for (std::size_t s = 0; s < results[0].per_shard.size(); ++s) {
      EXPECT_EQ(results[i].per_shard[s], results[0].per_shard[s])
          << "shard " << s << " run " << i;
    }
  }

  // And the unsharded run consumes the same stream: same round count.
  engine::ShardedEngine single(tree, "tc", params, {.shards = 1});
  const auto source = sim::make_source("fib-real", tree, params, 77);
  const engine::EngineResult alone = single.run(*source);
  EXPECT_EQ(alone.total.rounds, results[0].total.rounds);
}

TEST(Engine, MrtFixtureIsBitIdenticalAndMatchesTheTextFixture) {
  // rib_v4.mrt holds the SAME records as rib_v4.feed (same generator
  // seed), in binary MRT form. The replay must be bit-identical across
  // engine geometries AND across feed formats.
  const sim::Params mrt_params = real_params("rib_v4.mrt", 4);
  const RealFibReplay& replay = shared_real_fib(mrt_params);
  const Tree& tree = replay.tree();

  std::vector<engine::EngineResult> results;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    engine::ShardedEngine eng(tree, "tc", mrt_params,
                              {.shards = 8, .threads = threads,
                               .batch = 128});
    const auto source = sim::make_source("fib-real", tree, mrt_params, 77);
    results.push_back(eng.run(*source));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].total, results[0].total) << "run " << i;
    ASSERT_EQ(results[i].per_shard.size(), results[0].per_shard.size());
    for (std::size_t s = 0; s < results[0].per_shard.size(); ++s) {
      EXPECT_EQ(results[i].per_shard[s], results[0].per_shard[s])
          << "shard " << s << " run " << i;
    }
  }

  // Cross-format: the text fixture drives an identical replay.
  const sim::Params text_params = real_params("rib_v4.feed", 4);
  const RealFibReplay& text_replay = shared_real_fib(text_params);
  EXPECT_TRUE(text_replay.tree() == replay.tree());
  EXPECT_EQ(text_replay.v4->churn_nodes, replay.v4->churn_nodes);
  engine::ShardedEngine text_engine(text_replay.tree(), "tc", text_params,
                                    {.shards = 8, .threads = 2, .batch = 128});
  const auto text_source =
      sim::make_source("fib-real", text_replay.tree(), text_params, 77);
  const engine::EngineResult from_text = text_engine.run(*text_source);
  EXPECT_EQ(from_text.total, results[0].total);
  ASSERT_EQ(from_text.per_shard.size(), results[0].per_shard.size());
  for (std::size_t s = 0; s < results[0].per_shard.size(); ++s) {
    EXPECT_EQ(from_text.per_shard[s], results[0].per_shard[s])
        << "shard " << s;
  }
}

TEST(SharedRealFib, FeedMutationInvalidatesTheProcessCache) {
  // Regression: the process-wide replay cache was keyed by (path, family)
  // only, so regenerating a feed file mid-process silently replayed the
  // OLD table. The key now folds in file size and mtime.
  const std::string path = "/tmp/treecache_test_shared_fib.feed";
  const auto write_feed = [&path](NextHop hop, bool extra_update) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "TABLE_DUMP|10.0.0.0/8|" << hop << "\n"
        << "TABLE_DUMP|10.1.0.0/16|2\n"
        << "1|announce|10.2.0.0/16|3\n";
    if (extra_update) out << "2|withdraw|10.1.0.0/16\n";
  };
  write_feed(1, false);
  sim::Params params;
  params.set("alpha", "4");
  params.set("capacity", "16");
  params.set("rib-feed", path);
  params.set("family", "4");
  params.set("lookups-per-event", "8");

  const RealFibReplay& first = shared_real_fib(params);
  EXPECT_EQ(first.churn_events(), 1u);

  // Growing the file (size change) must produce a fresh ingest. Cache
  // entries live for the process, so a stale hit would return the SAME
  // object — the address check is the regression trip-wire.
  write_feed(1, true);
  const RealFibReplay& second = shared_real_fib(params);
  EXPECT_NE(&first, &second);
  EXPECT_EQ(second.churn_events(), 2u);

  // A same-size rewrite must also miss, via mtime. Rewrite until the
  // filesystem timestamp actually moves (coarse-mtime safety loop).
  const auto stamp_before = std::filesystem::last_write_time(path);
  do {
    write_feed(9, true);  // same byte length, different next hop
    if (std::filesystem::last_write_time(path) != stamp_before) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  } while (true);
  const RealFibReplay& third = shared_real_fib(params);
  EXPECT_NE(&second, &third);
  EXPECT_EQ(third.churn_events(), 2u);
  std::remove(path.c_str());
}

TEST(Canonicalizer, FactorTwoBoundHoldsOnRealIpv6Churn) {
  // Appendix B's canonicalization bound, exercised on the wide-key path:
  // the stream comes from real IPv6 feed churn, one α-chunk per feed
  // update, which the canonicalizer reads off the requests.
  const sim::Params params = real_params("rib_v6.feed", 6);
  const RealFibReplay& replay = shared_real_fib(params);
  const ChurnReplayConfig config{
      .lookups_per_event = 8, .tail_lookups = 0, .zipf_skew = 1.0,
      .alpha = 4};
  RibChurnSource6 source(replay.v6, config, Rng(31));
  const Trace trace = materialize(source);
  ASSERT_FALSE(replay.v6->churn_nodes.empty());

  TreeCache tc(replay.tree(), {.alpha = 4, .capacity = 16});
  const auto report =
      fib::run_canonicalized(replay.tree(), trace, config.alpha, tc);
  EXPECT_EQ(report.chunks, replay.v6->churn_nodes.size());
  EXPECT_EQ(report.raw_cost.total(), tc.cost().total());
  EXPECT_LE(report.canonical_cost.total(), 2 * report.raw_cost.total());
}

}  // namespace
}  // namespace treecache::rib
