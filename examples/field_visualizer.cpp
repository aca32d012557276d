// Event-space visualizer (Figure 2): runs TC on a line tree and renders the
// partition of the (node × round) space into fields.
//
//   $ ./field_visualizer [nodes] [rounds] [seed]
//
// Rows are tree nodes (root on top, leaf at the bottom, exactly like the
// paper's Figure 2); columns are rounds. '+'/'-' are paid requests, letters
// are the fields their windows belong to, '*' marks the artificial fetch
// of a finished phase, '.' is the open field F∞.
#include <cstdio>

#include "core/field_tracker.hpp"
#include "core/tree_cache.hpp"
#include "example_args.hpp"
#include "tree/tree_builder.hpp"
#include "workload/generators.hpp"

using namespace treecache;

static int example_main(int argc, char** argv) {
  const std::size_t nodes =
      examples::positional_u64(argc, argv, 1, "nodes", 6);
  const std::size_t rounds =
      examples::positional_u64(argc, argv, 2, "rounds", 120);
  const std::uint64_t seed =
      examples::positional_u64(argc, argv, 3, "seed", 11);
  const std::uint64_t alpha = 3;

  const Tree line = trees::path(nodes);
  Rng rng(seed);
  // Mixed positive/negative traffic concentrated low in the line so both
  // fetches and evictions happen.
  const Trace trace = workload::uniform_trace(line, rounds, 0.45, rng);

  TreeCache tc(line, {.alpha = alpha, .capacity = nodes});
  FieldTracker tracker(line, alpha);
  for (const Request& r : trace) tracker.observe(r, tc.step(r));
  tracker.finalize();

  std::printf("TC on a line of %zu nodes, alpha=%llu, %zu rounds\n\n", nodes,
              static_cast<unsigned long long>(alpha), rounds);
  std::fputs(tracker.render_event_space(rounds).c_str(), stdout);

  std::printf("\nfields: %zu\n", tracker.fields().size());
  for (std::size_t i = 0; i < tracker.fields().size(); ++i) {
    const Field& f = tracker.fields()[i];
    std::printf("  %c: %s at round %llu, size %zu, requests %llu "
                "(= size*alpha, Observation 5.2)%s\n",
                f.artificial ? '*' : static_cast<char>('A' + i % 26),
                f.kind == ChangeKind::kFetch ? "fetch" : "evict",
                static_cast<unsigned long long>(f.end_round), f.size(),
                static_cast<unsigned long long>(f.requests),
                f.artificial ? " [artificial]" : "");
  }
  std::puts("\nper-phase accounting (Figure 3 / Lemma 5.11):");
  for (std::size_t i = 0; i < tracker.phases().size(); ++i) {
    const auto& p = tracker.phases()[i];
    std::printf("  phase %zu: p_out=%llu p_in=%llu k_P=%llu  "
                "(p_out = p_in + k_P %s)\n",
                i + 1, static_cast<unsigned long long>(p.p_out),
                static_cast<unsigned long long>(p.p_in),
                static_cast<unsigned long long>(p.k_end),
                p.p_out == p.p_in + p.k_end ? "holds" : "VIOLATED");
  }
  tracker.verify_period_accounting();
  tracker.verify_lemma_5_3(alpha);
  std::puts("Observation 5.2, period accounting and Lemma 5.3 verified.");
  return 0;
}

int main(int argc, char** argv) {
  return examples::run_main(example_main, argc, argv);
}
