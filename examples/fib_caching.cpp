// FIB caching scenario (§2, Figure 1): an SDN controller keeps the full
// routing table; a switch caches a subforest of rules. Compares TC against
// the dependency-aware LRU baseline and the no-cache floor on synthetic
// Zipf traffic with BGP-style update churn.
//
//   $ ./fib_caching [rules] [packets] [cache_size]
#include <cstdio>
#include <cstdlib>

#include "baselines/lru_closure.hpp"
#include "baselines/never_cache.hpp"
#include "core/tree_cache.hpp"
#include "example_args.hpp"
#include "fib/rib_gen.hpp"
#include "fib/router_sim.hpp"
#include "util/table.hpp"

using namespace treecache;
using namespace treecache::fib;

static int example_main(int argc, char** argv) {
  const std::size_t rules =
      examples::positional_u64(argc, argv, 1, "rules", 20000);
  const std::size_t packets =
      examples::positional_u64(argc, argv, 2, "packets", 200000);
  const std::size_t cache_size =
      examples::positional_u64(argc, argv, 3, "cache_size", 1000);
  const std::uint64_t alpha = 16;

  std::printf("generating synthetic RIB: %zu rules...\n", rules);
  Rng rng(42);
  const auto rib = generate_rib({.rules = rules, .deaggregation = 0.5}, rng);
  const RuleTree rt = build_rule_tree(rib);
  std::printf("rule tree: %zu nodes, height %u, max degree %u\n\n",
              rt.tree.size(), rt.tree.height(), rt.tree.max_degree());

  const RouterSimConfig sim_config{.packets = packets,
                                   .zipf_skew = 1.05,
                                   .update_probability = 0.005,
                                   .alpha = alpha,
                                   .seed = 7};

  ConsoleTable table({"algorithm", "hit rate", "misses", "updates paid",
                      "service", "reorg", "total cost"});
  auto run = [&](OnlineAlgorithm& alg) {
    const RouterSimResult r = run_router_sim(rt, alg, sim_config);
    if (r.forwarding_errors != 0) {
      std::fprintf(stderr, "FORWARDING ERRORS: %llu\n",
                   static_cast<unsigned long long>(r.forwarding_errors));
      std::exit(1);
    }
    table.add_row({std::string(alg.name()),
                   ConsoleTable::fmt(1.0 - r.miss_rate(), 4),
                   ConsoleTable::fmt(r.misses),
                   ConsoleTable::fmt(r.cached_updates),
                   ConsoleTable::fmt(r.algorithm_cost.service),
                   ConsoleTable::fmt(r.algorithm_cost.reorg),
                   ConsoleTable::fmt(r.algorithm_cost.total())});
  };

  TreeCache tc(rt.tree, {.alpha = alpha, .capacity = cache_size});
  LruClosure lru(rt.tree, {.alpha = alpha, .capacity = cache_size});
  LruClosure lru_inv(rt.tree, {.alpha = alpha,
                               .capacity = cache_size,
                               .evict_on_negative = true});
  NeverCache none(rt.tree);
  run(tc);
  run(lru);
  run(lru_inv);
  run(none);

  std::printf("switch cache: %zu of %zu rules (%.1f%%), alpha = %llu\n\n",
              cache_size, rt.tree.size(),
              100.0 * static_cast<double>(cache_size) /
                  static_cast<double>(rt.tree.size()),
              static_cast<unsigned long long>(alpha));
  table.print();
  std::puts("\n(forwarding correctness was verified for every packet:\n"
            " LPM over the cached subforest never picked a wrong rule)");
  return 0;
}

int main(int argc, char** argv) {
  return examples::run_main(example_main, argc, argv);
}
