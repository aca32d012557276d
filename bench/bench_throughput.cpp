// Throughput trajectory: requests/sec of the driver stack, from the
// legacy per-round observer loop through the batched hot path to the
// sharded engine at 8 shards — plus the closed loop: the FIB router
// source sharded into per-shard mirrors with outcome feedback queues.
// Open-loop rows share one Zipf stream over a tree with eight equal
// top-level subtrees; closed-loop rows run the router event loop on a
// synthetic RIB. The fib-real rows replay the checked-in RIB feed fixture
// (ingested dump+update churn) through the same open-loop engine at 1x1
// and 8xN. The tc-deep rows run a 13-level universe, deep enough that
// TC's subtree slice scans carry the round, at 1x1 and at 8xN with
// pinned, first-touched workers.
// Identical seed per mode, best of TREECACHE_BENCH_REPS repetitions; emits
// BENCH_throughput.json when TREECACHE_BENCH_JSON_DIR is set (the CI perf
// artifact).
#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "engine/sharded_engine.hpp"
#include "fib/fib_workloads.hpp"
#include "fib/router_source.hpp"
#include "rib/churn_source.hpp"
#include "rib/feed.hpp"
#include "rib/ingest.hpp"
#include "rib/workloads.hpp"
#include "sim/bench_env.hpp"
#include "sim/fib_engine.hpp"
#include "sim/registry.hpp"
#include "sim/reporting.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_builder.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace treecache;

namespace {

struct Mode {
  std::string name;
  std::size_t shards = 1;   // 1 = plain run_source driver
  std::size_t threads = 1;  // 0 = one worker per shard (hardware-capped)
  bool observer = false;    // force the per-round observer slow path
  bool closed_loop = false;  // FIB router source instead of the Zipf stream
  bool real_feed = false;    // fib-real: ingested RIB feed replay
  std::string baseline{};    // mode name the speedup column divides by
  bool deep = false;         // run on the deep (13-level) universe
  bool pin = false;  // pin workers + first-touch shard state (open loop)
};

/// Every row runs the paper's TC.
constexpr const char* kAlgo = "tc";

struct Sample {
  sim::RunResult result;
  std::size_t threads = 1;
};

Sample run_mode(const Mode& mode, const Tree& tree,
                const sim::Params& params, std::uint64_t seed) {
  const auto source = sim::make_source("zipf", tree, params, seed);
  if (mode.shards == 1) {
    const auto alg = sim::make_algorithm(kAlgo, tree, params);
    if (mode.observer) {
      // The pre-batching driver shape: a live (no-op) observer forces the
      // scalar loop with its per-round std::function dispatch.
      std::uint64_t sink = 0;
      const sim::StepObserver observer =
          [&sink](std::size_t, Request, const StepOutcome& out) {
            sink += out.paid ? 1 : 0;
          };
      return {sim::run_source(*alg, *source, observer), 1};
    }
    return {sim::run_source(*alg, *source), 1};
  }
  engine::ShardedEngine eng(tree, kAlgo, params,
                            {.shards = mode.shards,
                             .threads = mode.threads,
                             .batch = 4096,
                             .pin_threads = mode.pin});
  const engine::EngineResult result = eng.run(*source);
  return {result.total, result.threads};
}

Sample run_closed_loop_mode(const Mode& mode, const fib::RuleTree& rules,
                            const sim::Params& params, std::uint64_t seed) {
  engine::ShardedEngine eng(
      rules.tree, kAlgo, params,
      {.shards = mode.shards, .threads = mode.threads});
  fib::RouterSource source(rules, sim::fib_router_config(params, seed));
  const engine::EngineResult result = eng.run(source);
  return {result.total, result.threads};
}

Sample run_real_feed_mode(const Mode& mode, const Tree& tree,
                          const sim::Params& params, std::uint64_t seed) {
  engine::ShardedEngine eng(
      tree, kAlgo, params,
      {.shards = mode.shards, .threads = mode.threads, .batch = 4096});
  const auto source = sim::make_source("fib-real", tree, params, seed);
  const engine::EngineResult result = eng.run(*source);
  return {result.total, result.threads};
}

}  // namespace

int main() {
  const char* kTitle = "Driver throughput — batched hot path and sharding";
  sim::print_experiment_banner(
      "throughput", kTitle,
      "one instance serves what one core serves; contiguous-preorder "
      "shards scale requests/sec with cores at bit-identical total cost");

  // Eight equal top-level subtrees: pick the largest complete 8-ary tree
  // within the (possibly bench-scaled) node budget so every shard carries
  // the same mass.
  const std::size_t node_budget = sim::bench_scaled(37449);  // 8-ary, 6 lvls
  std::size_t levels = 2;
  std::size_t size = 9;  // 1 + 8
  while (size * 8 + 1 <= node_budget) {
    size = size * 8 + 1;
    ++levels;
  }
  const Tree tree = trees::complete_kary(levels, 8);

  // Deep universe for the tc-deep rows: eight 12-level complete binary
  // subtrees under one root (13 levels, 32761 nodes) — walks long enough
  // that TC's slice scans dominate the round, still eight equal top-level
  // shards. Not bench-scaled: depth is the point; the request stream
  // length is scaled instead (shared `length` param).
  constexpr std::size_t kSubLevels = 12;
  constexpr std::size_t kSubNodes = (std::size_t{1} << kSubLevels) - 1;
  std::vector<NodeId> deep_parents(1 + 8 * kSubNodes, kNoNode);
  for (std::size_t t = 0; t < 8; ++t) {
    for (std::size_t j = 0; j < kSubNodes; ++j) {
      const std::size_t id = 1 + t * kSubNodes + j;
      deep_parents[id] = static_cast<NodeId>(
          j == 0 ? 0 : 1 + t * kSubNodes + (j - 1) / 2);
    }
  }
  const Tree deep_tree(deep_parents);

  sim::Params params;
  params.set("alpha", "16");
  params.set("capacity", "512");
  params.set("skew", "1.0");
  params.set("neg", "0.1");
  params.set("length", std::to_string(sim::bench_scaled(4000000)));
  const std::uint64_t seed = 20260730;
  const std::size_t reps = sim::bench_reps(3);

  std::printf("tree: %zu nodes (%zu levels, arity 8), %s requests, "
              "best of %zu reps\n",
              tree.size(), levels, params.get("length", "?").c_str(), reps);

  // Closed-loop substrate: the FIB router event loop on a synthetic RIB.
  // Sharded runs generate the event stream ONCE on the producer thread and
  // route per-shard chunks into the mirrors; stepping parallelizes across
  // the workers while feedback flows back through batched per-shard
  // outcome rings.
  sim::Params fib_params;
  fib_params.set("alpha", "16");
  fib_params.set("capacity", "512");
  fib_params.set("skew", "1.0");
  fib_params.set("update-prob", "0.01");
  fib_params.set("rules", std::to_string(sim::bench_scaled(20000)));
  fib_params.set("packets", std::to_string(sim::bench_scaled(400000)));
  const fib::RuleTree rules = fib::rule_tree_from_params(fib_params);

  // Real-feed substrate: the checked-in RIB fixture replayed as churn
  // (α-chunk updates interleaved with Zipf lookups). The table is small —
  // what the rows measure is the driver stack on a real update/lookup mix,
  // so the stream length is scaled through lookups-per-event.
  sim::Params real_params;
  real_params.set("alpha", "16");
  real_params.set("capacity", "512");
  real_params.set("skew", "1.0");
  real_params.set("rib-feed",
                  std::string(TREECACHE_TEST_DATA_DIR) + "/rib_v4.feed");
  real_params.set("lookups-per-event",
                  std::to_string(sim::bench_scaled(20000)));
  const Tree& real_tree = rib::shared_real_fib(real_params).tree();

  // Each workload family measures against ITS single-thread row: open-loop
  // rows against the batched Zipf driver, fib-closed rows against the
  // unsharded router loop — a closed-loop "speedup" vs an open-loop
  // baseline would compare different substrates and mean nothing.
  const std::vector<Mode> modes{
      {.name = "scalar+observer",
       .observer = true,
       .baseline = "single-thread"},
      {.name = "single-thread", .shards = 1, .baseline = "single-thread"},
      {.name = "sharded-8x1",
       .shards = 8,
       .threads = 1,
       .baseline = "single-thread"},
      {.name = "sharded-8xN",
       .shards = 8,
       .threads = 0,
       .baseline = "single-thread"},
      {.name = "fib-closed-1x1",
       .shards = 1,
       .closed_loop = true,
       .baseline = "fib-closed-1x1"},
      {.name = "fib-closed-8xN",
       .shards = 8,
       .threads = 0,
       .closed_loop = true,
       .baseline = "fib-closed-1x1"},
      // Real-feed rows: the fib-real workload over the ingested fixture
      // table — open loop, so it shards through the same demux as the Zipf
      // rows, but the stream is a real dump+update churn mix whose
      // generation, on the one demux thread, bounds the 8xN row.
      {.name = "fib-real-1x1", .shards = 1, .real_feed = true,
       .baseline = "fib-real-1x1"},
      {.name = "fib-real-8xN",
       .shards = 8,
       .threads = 0,
       .real_feed = true,
       .baseline = "fib-real-1x1"},
      // Deep-universe rows: TC on the 13-level tree, unsharded and then
      // sharded 8xN with pinned, first-touched workers.
      {.name = "tc-deep-1x1",
       .shards = 1,
       .baseline = "tc-deep-1x1",
       .deep = true},
      {.name = "tc-deep-8xN",
       .shards = 8,
       .threads = 0,
       .baseline = "tc-deep-1x1",
       .deep = true,
       .pin = true},
  };

  // Measure everything first: the single-thread baseline row itself gets a
  // real speedup ratio (< 1 for the observer loop), not a placeholder.
  std::vector<Sample> best(modes.size());
  for (std::size_t m = 0; m < modes.size(); ++m) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Sample sample =
          modes[m].deep
              ? run_mode(modes[m], deep_tree, params, seed)
              : modes[m].real_feed
                    ? run_real_feed_mode(modes[m], real_tree, real_params,
                                         seed)
                    : modes[m].closed_loop
                          ? run_closed_loop_mode(modes[m], rules, fib_params,
                                                 seed)
                          : run_mode(modes[m], tree, params, seed);
      if (best[m].result.rounds == 0 ||
          sample.result.wall_seconds < best[m].result.wall_seconds) {
        best[m] = sample;
      }
    }
  }
  const auto rps_of = [&](const std::string& name) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      if (modes[m].name == name) return best[m].result.requests_per_second();
    }
    return 0.0;
  };

  ConsoleTable table({"mode", "algo", "shards", "threads", "total cost",
                      "wall s", "Mreq/s", "vs baseline"});
  util::Json json_rows = util::Json::array();
  for (std::size_t m = 0; m < modes.size(); ++m) {
    const Mode& mode = modes[m];
    const double rps = best[m].result.requests_per_second();
    const double baseline_rps = rps_of(mode.baseline);
    const double speedup = baseline_rps > 0.0 ? rps / baseline_rps : 0.0;
    table.add_row({mode.name, kAlgo,
                   ConsoleTable::fmt(std::uint64_t{mode.shards}),
                   ConsoleTable::fmt(std::uint64_t{best[m].threads}),
                   ConsoleTable::fmt(best[m].result.cost.total()),
                   ConsoleTable::fmt(best[m].result.wall_seconds, 3),
                   ConsoleTable::fmt(rps / 1e6, 2),
                   ConsoleTable::fmt(speedup, 2) + "x"});
    json_rows.push(util::Json::object()
                       .set("mode", mode.name)
                       .set("algo", kAlgo)
                       .set("shards", std::uint64_t{mode.shards})
                       .set("threads", std::uint64_t{best[m].threads})
                       .set("rounds", best[m].result.rounds)
                       .set("total_cost", best[m].result.cost.total())
                       .set("wall_seconds", best[m].result.wall_seconds)
                       .set("requests_per_second", rps)
                       .set("baseline_mode", mode.baseline)
                       .set("speedup_vs_baseline", speedup));
  }

  // Internet-scale RIB stress rows: synthesize a ~1M-route IPv4 table
  // plus an update stream, then time raw feed ingestion (records/s into
  // the radix RIB) and the replay-FIB rebuild (tree nodes/s). The rows
  // carry the trie's heap bytes and the process peak RSS — the memory
  // audit that keeps internet-size tables honest.
  {
    rib::SyntheticFeedConfig feed_config;
    feed_config.routes = sim::bench_scaled(1000000);
    feed_config.updates = sim::bench_scaled(50000);
    feed_config.family = 4;
    Rng feed_rng(17);
    const std::vector<rib::FeedRecord> records =
        rib::generate_feed(feed_config, feed_rng);
    double ingest_wall = 0.0;
    double rebuild_wall = 0.0;
    std::uint64_t live_routes = 0;
    std::uint64_t trie_nodes = 0;
    std::uint64_t trie_bytes = 0;
    std::uint64_t rebuild_nodes = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      rib::IngestResult ingest;
      const auto t0 = std::chrono::steady_clock::now();
      for (const rib::FeedRecord& record : records) ingest.apply(record);
      const auto t1 = std::chrono::steady_clock::now();
      const auto replay = rib::make_churn_replay(ingest.v4);
      const auto t2 = std::chrono::steady_clock::now();
      const double wall_ingest = std::chrono::duration<double>(t1 - t0).count();
      const double wall_rebuild =
          std::chrono::duration<double>(t2 - t1).count();
      if (rep == 0 || wall_ingest < ingest_wall) ingest_wall = wall_ingest;
      if (rep == 0 || wall_rebuild < rebuild_wall) rebuild_wall = wall_rebuild;
      if (rep == 0) {
        live_routes = ingest.v4.rib.size();
        trie_nodes = ingest.v4.rib.node_count();
        trie_bytes = ingest.v4.rib.memory_bytes();
        rebuild_nodes = replay.fib.tree.size();
      }
    }
    const std::uint64_t rss = sim::peak_rss_bytes();
    const double ingest_rps =
        static_cast<double>(records.size()) / std::max(ingest_wall, 1e-9);
    const double rebuild_rps =
        static_cast<double>(rebuild_nodes) / std::max(rebuild_wall, 1e-9);
    table.add_row({"rib-1m-ingest", "rib", "1", "1",
                   ConsoleTable::fmt(std::uint64_t{records.size()}),
                   ConsoleTable::fmt(ingest_wall, 3),
                   ConsoleTable::fmt(ingest_rps / 1e6, 2), "1.00x"});
    table.add_row({"rib-1m-rebuild", "rib", "1", "1",
                   ConsoleTable::fmt(rebuild_nodes),
                   ConsoleTable::fmt(rebuild_wall, 3),
                   ConsoleTable::fmt(rebuild_rps / 1e6, 2), "1.00x"});
    json_rows.push(util::Json::object()
                       .set("mode", "rib-1m-ingest")
                       .set("algo", "rib")
                       .set("shards", std::uint64_t{1})
                       .set("threads", std::uint64_t{1})
                       .set("rounds", std::uint64_t{records.size()})
                       .set("total_cost", std::uint64_t{0})
                       .set("wall_seconds", ingest_wall)
                       .set("requests_per_second", ingest_rps)
                       .set("baseline_mode", "rib-1m-ingest")
                       .set("speedup_vs_baseline", 1.0)
                       .set("routes", live_routes)
                       .set("routes_per_second", ingest_rps)
                       .set("trie_nodes", trie_nodes)
                       .set("trie_bytes", trie_bytes)
                       .set("peak_rss_bytes", rss));
    json_rows.push(util::Json::object()
                       .set("mode", "rib-1m-rebuild")
                       .set("algo", "rib")
                       .set("shards", std::uint64_t{1})
                       .set("threads", std::uint64_t{1})
                       .set("rounds", rebuild_nodes)
                       .set("total_cost", std::uint64_t{0})
                       .set("wall_seconds", rebuild_wall)
                       .set("requests_per_second", rebuild_rps)
                       .set("baseline_mode", "rib-1m-rebuild")
                       .set("speedup_vs_baseline", 1.0)
                       .set("routes", live_routes)
                       .set("routes_per_second", rebuild_rps)
                       .set("trie_nodes", trie_nodes)
                       .set("trie_bytes", trie_bytes)
                       .set("peak_rss_bytes", rss));
  }
  table.print();
  const std::string json_path =
      sim::write_bench_json("throughput", kTitle, std::move(json_rows));
  if (!json_path.empty()) sim::print_note("json", json_path);
  sim::print_note(
      "reading",
      "the batched no-observer hot path is the single-instance ceiling; "
      "8 contiguous-preorder shards keep the aggregate cost bit-identical "
      "across thread counts while requests/sec scales with the worker "
      "count (bounded by the machine's cores — see the threads column). "
      "The fib-closed rows shard the feedback loop itself: one producer "
      "generates the event stream once and feeds per-shard mirrors, whose "
      "outcomes flow back through batched per-shard rings — so the sharded "
      "closed loop pays one generation pass plus parallel stepping; its "
      "ratio to the 1x1 row measures whether that pays on this machine. "
      "The fib-real rows swap the synthetic stream for replayed RIB-feed "
      "churn. The tc-deep rows run TC on a 13-level universe where the "
      "subtree slice scans are long (tc-deep-8xN adds pinned, "
      "first-touched shard workers). The rib-1m rows stress the ingestion "
      "layer at internet scale: ~1M synthetic IPv4 routes applied to the "
      "radix RIB (records/s) and rebuilt into the replay rule tree "
      "(nodes/s), with trie heap bytes and peak RSS as the memory audit");
  return 0;
}
