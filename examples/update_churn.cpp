// Rule-update churn study (Appendix B): how update rate affects the cost
// split, and the canonicalization factor on a realistic FIB workload.
//
//   $ ./update_churn [rules] [events]
#include <cstdio>

#include "core/tree_cache.hpp"
#include "example_args.hpp"
#include "fib/canonicalizer.hpp"
#include "fib/rib_gen.hpp"
#include "fib/traffic.hpp"
#include "util/table.hpp"

using namespace treecache;
using namespace treecache::fib;

static int example_main(int argc, char** argv) {
  const std::size_t rules =
      examples::positional_u64(argc, argv, 1, "rules", 5000);
  const std::size_t events =
      examples::positional_u64(argc, argv, 2, "events", 100000);
  const std::uint64_t alpha = 12;
  const std::size_t capacity = 400;

  Rng rng(9);
  const auto rib = generate_rib({.rules = rules, .deaggregation = 0.5}, rng);
  const RuleTree rt = build_rule_tree(rib);
  std::printf("rule tree: %zu nodes, height %u\n\n", rt.tree.size(),
              rt.tree.height());

  ConsoleTable table({"update prob", "chunks", "dirty chunks", "TC cost",
                      "canonical cost", "canonical/raw", "<= 2?"});
  for (const double update_prob : {0.0, 0.002, 0.01, 0.05, 0.2}) {
    FibTraceSource source(
        rt,
        {.events = events, .zipf_skew = 1.0,
         .update_probability = update_prob, .alpha = alpha},
        Rng(100 + static_cast<std::uint64_t>(update_prob * 10000)));
    const Trace workload = materialize(source);
    TreeCache tc(rt.tree, {.alpha = alpha, .capacity = capacity});
    const CanonicalizationReport report =
        run_canonicalized(rt.tree, workload, alpha, tc);
    table.add_row(
        {ConsoleTable::fmt(update_prob, 3), ConsoleTable::fmt(report.chunks),
         ConsoleTable::fmt(report.dirty_chunks),
         ConsoleTable::fmt(report.raw_cost.total()),
         ConsoleTable::fmt(report.canonical_cost.total()),
         ConsoleTable::fmt(report.ratio(), 3),
         report.ratio() <= 2.0 ? "yes" : "NO"});
  }
  table.print();
  std::puts("\nAppendix B: postponing mid-chunk cache changes to chunk ends\n"
            "(canonicalization) costs at most a factor of 2 — measured far\n"
            "below that in practice.");
  return 0;
}

int main(int argc, char** argv) {
  return examples::run_main(example_main, argc, argv);
}
