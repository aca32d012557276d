// E7 — Appendix B: the rule-update model. One BGP update = a chunk of
// alpha negative requests; canonical solutions (no mid-chunk cache changes)
// cost at most 2x. Measures the actual canonicalization factor across
// update rates on the FIB substrate, and exits 1 when a row breaks the
// bound.
#include <vector>

#include "baselines/lru_closure.hpp"
#include "core/tree_cache.hpp"
#include "fib/canonicalizer.hpp"
#include "fib/rib_gen.hpp"
#include "fib/traffic.hpp"
#include "sim/reporting.hpp"
#include "util/table.hpp"

using namespace treecache;
using namespace treecache::fib;

int main() {
  sim::print_experiment_banner(
      "E7", "Appendix B — update chunks and canonicalization",
      "any solution B maps to a canonical B' (no mid-chunk changes) with "
      "B' <= 2B");

  Rng rng(123);
  const auto rib = generate_rib({.rules = 4000, .deaggregation = 0.5}, rng);
  const RuleTree rt = build_rule_tree(rib);
  std::printf("substrate: synthetic RIB, %zu rules, height %u\n",
              rt.tree.size() - 1, rt.tree.height());

  const std::uint64_t alpha = 12;
  ConsoleTable table({"algorithm", "update prob", "chunks", "dirty",
                      "B (raw)", "B' (canonical)", "B'/B", "bound ok"});
  bool bound_holds = true;
  for (const double p : {0.005, 0.02, 0.1, 0.3}) {
    const std::uint64_t wl_seed = rng();
    for (const bool use_tc : {true, false}) {
      FibTraceSource source(rt,
                            {.events = 60000, .zipf_skew = 1.0,
                             .update_probability = p, .alpha = alpha},
                            Rng(wl_seed));
      const Trace workload = materialize(source);
      // LRU with invalidation evicts at the FIRST negative of a chunk —
      // maximally non-canonical; TC's pooled counters trigger at chunk
      // ends almost always.
      TreeCache tc(rt.tree, {.alpha = alpha, .capacity = 300});
      LruClosure lru(rt.tree, {.alpha = alpha,
                               .capacity = 300,
                               .evict_on_negative = true});
      OnlineAlgorithm& alg =
          use_tc ? static_cast<OnlineAlgorithm&>(tc) : lru;
      const CanonicalizationReport report =
          run_canonicalized(rt.tree, workload, alpha, alg);
      const bool bound_ok = report.ratio() <= 2.0;
      bound_holds = bound_holds && bound_ok;
      table.add_row({std::string(alg.name()), ConsoleTable::fmt(p, 3),
                     ConsoleTable::fmt(report.chunks),
                     ConsoleTable::fmt(report.dirty_chunks),
                     ConsoleTable::fmt(report.raw_cost.total()),
                     ConsoleTable::fmt(report.canonical_cost.total()),
                     ConsoleTable::fmt(report.ratio(), 4),
                     bound_ok ? "yes" : "NO"});
    }
  }
  table.print();
  sim::print_note(
      "reading",
      "the Appendix B bound B' <= 2B holds for both algorithms; TC is "
      "already canonical on these runs (its chunk counters saturate exactly "
      "at chunk ends), while invalidate-on-update LRU modifies mid-chunk "
      "for every cached update and still stays far below the factor 2");
  return bound_holds ? 0 : 1;
}
