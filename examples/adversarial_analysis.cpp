// Lower-bound analysis (Theorem C.1): runs the adaptive paging adversary
// against TC on a star tree and compares with the exact offline optimum,
// sweeping the offline cache size k_OPT.
//
//   $ ./adversarial_analysis [k_onl] [chunks]
#include <cstdio>

#include "baselines/opt_offline.hpp"
#include "core/tree_cache.hpp"
#include "example_args.hpp"
#include "tree/tree_builder.hpp"
#include "util/table.hpp"
#include "workload/adversary.hpp"

using namespace treecache;

static int example_main(int argc, char** argv) {
  const std::size_t k_onl =
      examples::positional_u64(argc, argv, 1, "k_onl", 6);
  const std::size_t chunks =
      examples::positional_u64(argc, argv, 2, "chunks", 120);
  const std::uint64_t alpha = 4;

  if (k_onl > 16) {
    std::fputs("k_onl > 16 makes the exact OPT DP intractable\n", stderr);
    return 1;
  }

  const Tree star = trees::star(k_onl + 1);
  TreeCache tc(star, {.alpha = alpha, .capacity = k_onl});
  const Trace trace =
      workload::run_paging_adversary(tc, star, alpha, chunks);

  std::printf("adversarial instance: star over %zu leaves, alpha=%llu, "
              "%zu chunks (%zu requests)\n",
              k_onl + 1, static_cast<unsigned long long>(alpha), chunks,
              trace.size());
  std::printf("TC cost: %llu (service %llu, reorg %llu)\n\n",
              static_cast<unsigned long long>(tc.cost().total()),
              static_cast<unsigned long long>(tc.cost().service),
              static_cast<unsigned long long>(tc.cost().reorg));

  ConsoleTable table({"k_OPT", "OPT cost", "ratio TC/OPT",
                      "R = k/(k-k_OPT+1)"});
  for (std::size_t k_opt = 1; k_opt <= k_onl; ++k_opt) {
    const std::uint64_t opt =
        opt_offline_cost(star, trace, {.alpha = alpha, .capacity = k_opt});
    const double ratio = static_cast<double>(tc.cost().total()) /
                         static_cast<double>(opt);
    const double r = static_cast<double>(k_onl) /
                     static_cast<double>(k_onl - k_opt + 1);
    table.add_row({ConsoleTable::fmt(static_cast<std::uint64_t>(k_opt)),
                   ConsoleTable::fmt(opt), ConsoleTable::fmt(ratio, 2),
                   ConsoleTable::fmt(r, 2)});
  }
  table.print();
  std::puts("\nThe measured ratio tracks R (Theorem C.1: no deterministic\n"
            "algorithm can beat Ω(R); Theorem 5.15: TC is within O(h·R)).");
  return 0;
}

int main(int argc, char** argv) {
  return examples::run_main(example_main, argc, argv);
}
