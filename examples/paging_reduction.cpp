// Appendix C reduction demo: classic paging and tree caching simulate each
// other within constant factors.
//
//   $ ./paging_reduction [pages] [cache] [requests]
//
// Direction 1 (lifting): a paging sequence over N pages becomes a tree
// caching instance on a star (page p -> alpha positive requests to leaf
// p+1). TC's cost then tracks a paging algorithm's fault count times
// Theta(alpha).
// Direction 2 (certification): Belady's fault count lower-bounds what any
// offline tree-caching solution must pay on the lifted instance, up to the
// same factor.
#include <cstdio>

#include "baselines/paging.hpp"
#include "core/tree_cache.hpp"
#include "example_args.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/adversary.hpp"

using namespace treecache;

static int example_main(int argc, char** argv) {
  const std::size_t pages =
      examples::positional_u64(argc, argv, 1, "pages", 12);
  const std::size_t k = examples::positional_u64(argc, argv, 2, "cache", 6);
  const std::size_t requests =
      examples::positional_u64(argc, argv, 3, "requests", 5000);
  const std::uint64_t alpha = 8;

  // A Zipf-ish paging workload.
  Rng rng(99);
  std::vector<PageId> sequence(requests);
  for (auto& p : sequence) {
    // Repeated squaring of a uniform skews towards small page ids.
    const double u = rng.uniform01();
    p = static_cast<PageId>(static_cast<double>(pages) * u * u);
    if (p >= pages) p = static_cast<PageId>(pages - 1);
  }

  // Classic paging algorithms on the raw sequence.
  LruPaging lru(k);
  FifoPaging fifo(k);
  FwfPaging fwf(k);
  for (const PageId p : sequence) {
    lru.access(p);
    fifo.access(p);
    fwf.access(p);
  }
  const std::uint64_t opt_faults = belady_faults(sequence, k);

  // The lifted tree-caching instance on a star.
  const Tree star = trees::star(pages);
  const Trace lifted = workload::lift_paging_sequence(sequence, alpha);
  TreeCache tc(star, {.alpha = alpha, .capacity = k});
  const Cost tc_cost = sim::run_trace(tc, lifted).cost;

  std::printf("paging: %zu pages, cache %zu, %zu requests, alpha = %llu\n\n",
              pages, k, requests, static_cast<unsigned long long>(alpha));
  ConsoleTable table({"algorithm", "setting", "cost", "cost/alpha",
                      "vs Belady"});
  auto row = [&](const char* name, const char* setting, std::uint64_t cost,
                 bool scale_by_alpha) {
    const double in_faults =
        scale_by_alpha
            ? static_cast<double>(cost) / static_cast<double>(alpha)
            : static_cast<double>(cost);
    table.add_row({name, setting, ConsoleTable::fmt(cost),
                   ConsoleTable::fmt(in_faults, 1),
                   ConsoleTable::fmt(
                       in_faults / static_cast<double>(opt_faults), 2)});
  };
  row("LRU", "paging", lru.faults(), false);
  row("FIFO", "paging", fifo.faults(), false);
  row("FWF", "paging", fwf.faults(), false);
  row("Belady (OPT)", "paging", opt_faults, false);
  row("TC", "lifted tree instance", tc_cost.total(), true);
  table.print();

  std::puts(
      "\nAppendix C: TC's cost on the lifted instance, measured in units of\n"
      "alpha, is within a constant factor of the paging fault counts — the\n"
      "reduction preserves competitive ratios both ways, which is how the\n"
      "paper inherits the Omega(k/(k-h+1)) lower bound from paging.");
  return 0;
}

int main(int argc, char** argv) {
  return examples::run_main(example_main, argc, argv);
}
