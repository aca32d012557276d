// E8 — the §2 application (Figure 1): FIB caching on a synthetic RIB with
// Zipf traffic and BGP-style churn. Total cost and hit rates versus cache
// size for TC, the dependency-aware LRU baselines, the LocalTC ablation,
// the no-cache floor, and the offline static optimum (tree sparsity).
// Online algorithms resolve through the registry; honors the bench_env
// scaling knobs and emits BENCH_E8.json when TREECACHE_BENCH_JSON_DIR is
// set.
#include <string>
#include <vector>

#include "baselines/static_opt.hpp"
#include "fib/rib_gen.hpp"
#include "fib/traffic.hpp"
#include "sim/bench_env.hpp"
#include "sim/registry.hpp"
#include "sim/reporting.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace treecache;
using namespace treecache::fib;

int main() {
  const char* kTitle =
      "Section 2 application — FIB caching (controller + switch)";
  sim::print_experiment_banner(
      "E8", kTitle,
      "a small switch cache plus tree caching serves most traffic; TC "
      "balances miss cost against TCAM update cost");

  Rng rng(20240611);
  const std::size_t rules = sim::bench_scaled(20000);
  const auto rib = generate_rib({.rules = rules, .deaggregation = 0.5}, rng);
  const RuleTree rt = build_rule_tree(rib);

  const std::uint64_t alpha = 16;
  FibTraceSource source(rt,
                        {.events = sim::bench_scaled(150000),
                         .zipf_skew = 1.05, .update_probability = 0.004,
                         .alpha = alpha},
                        rng);
  const Trace trace = materialize(source);
  const auto trace_stats = stats(trace, rt.tree.size());
  std::printf("substrate: %zu rules, tree height %u, max degree %u\n", rules,
              rt.tree.height(), rt.tree.max_degree());
  std::printf("workload: %zu rounds (%zu packets, %zu update chunks), "
              "alpha = %llu\n",
              trace.size(), trace_stats.positives,
              static_cast<std::size_t>(trace_stats.negatives / alpha),
              static_cast<unsigned long long>(alpha));

  const double no_cache_total = static_cast<double>(trace_stats.positives);

  ConsoleTable table({"cache", "algorithm", "hit rate", "upd paid", "service",
                      "reorg", "total", "vs NoCache"});
  util::Json json_rows = util::Json::array();
  for (const std::size_t cache_permille : {5u, 10u, 20u, 50u}) {
    const std::size_t capacity =
        std::max<std::size_t>(1, rules * cache_permille / 1000);
    const std::string cache_label =
        ConsoleTable::fmt(static_cast<double>(cache_permille) / 10.0, 1) +
        "% (" + std::to_string(capacity) + ")";
    sim::Params params;
    params.set("alpha", std::to_string(alpha));
    params.set("capacity", std::to_string(capacity));

    // The online contenders resolve by registry name, so a new policy only
    // has to register itself to join the experiment.
    for (const char* name : {"tc", "lru", "lruinv", "local", "none"}) {
      const auto alg = sim::make_algorithm(name, rt.tree, params);
      const auto result = sim::run_trace(*alg, trace);
      const double hit_rate =
          1.0 - static_cast<double>(result.paid_positive) /
                    std::max(1.0, static_cast<double>(trace_stats.positives));
      const double vs_no_cache =
          static_cast<double>(result.cost.total()) / no_cache_total;
      table.add_row({cache_label, std::string(alg->name()),
                     ConsoleTable::fmt(hit_rate, 3),
                     ConsoleTable::fmt(result.paid_negative / alpha),
                     ConsoleTable::fmt(result.cost.service),
                     ConsoleTable::fmt(result.cost.reorg),
                     ConsoleTable::fmt(result.cost.total()),
                     ConsoleTable::fmt(vs_no_cache, 3)});
      json_rows.push(util::Json::object()
                         .set("cache_permille", std::uint64_t{cache_permille})
                         .set("capacity", std::uint64_t{capacity})
                         .set("algorithm", name)
                         .set("hit_rate", hit_rate)
                         .set("updates_paid", result.paid_negative / alpha)
                         .set("service_cost", result.cost.service)
                         .set("reorg_cost", result.cost.reorg)
                         .set("total_cost", result.cost.total())
                         .set("vs_no_cache", vs_no_cache));
    }

    // Offline static optimum: the best fixed subforest for this trace.
    const auto weights = positive_weights(rt.tree, trace);
    const auto chosen = best_static_subforest(rt.tree, weights, capacity);
    const std::uint64_t static_cost =
        static_cache_cost(rt.tree, trace, alpha, chosen);
    const double static_hit =
        static_cast<double>(chosen.covered_weight) /
        std::max(1.0, static_cast<double>(trace_stats.positives));
    const double static_vs_no_cache =
        static_cast<double>(static_cost) / no_cache_total;
    table.add_row({cache_label, "StaticOPT", ConsoleTable::fmt(static_hit, 3),
                   "-", "-", "-", ConsoleTable::fmt(static_cost),
                   ConsoleTable::fmt(static_vs_no_cache, 3)});
    json_rows.push(util::Json::object()
                       .set("cache_permille", std::uint64_t{cache_permille})
                       .set("capacity", std::uint64_t{capacity})
                       .set("algorithm", "StaticOPT")
                       .set("hit_rate", static_hit)
                       .set("total_cost", static_cost)
                       .set("vs_no_cache", static_vs_no_cache));
  }
  table.print();
  const std::string json_path =
      sim::write_bench_json("E8", kTitle, std::move(json_rows));
  if (!json_path.empty()) sim::print_note("json", json_path);
  sim::print_note(
      "reading",
      "a sub-5% cache absorbs roughly half the Zipf traffic; TC beats "
      "fetch-on-miss LRU by >20x once alpha (TCAM update cost) matters and "
      "lands within ~2x of the clairvoyant static optimum; LocalTC matches "
      "TC here because leaf-dominated Zipf traffic saturates caps node by "
      "node — E12 isolates where the aggregate scan is essential");
  return 0;
}
