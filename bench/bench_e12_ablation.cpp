// E12 — ablation: what the paper's two aggregation mechanisms buy.
//
//   TC        — counter aggregation over candidate sets + maximality scan
//   LocalTC   — same counters, but only the requested node's counter pays
//   LRU-cl    — no counters at all: fetch-on-miss with closure
//
// Three regimes: adversarial cyclic scan (worst case for fetch-on-miss),
// Zipf traffic (friendly), and deep-path traffic (where aggregation across
// a path is essential).
#include <memory>
#include <string>
#include <vector>

#include "baselines/local_tc.hpp"
#include "baselines/lru_closure.hpp"
#include "baselines/never_cache.hpp"
#include "core/tree_cache.hpp"
#include "sim/reporting.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_builder.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

using namespace treecache;

namespace {

struct Scenario {
  std::string name;
  Tree tree;
  Trace trace;
  std::size_t capacity;
};

std::vector<Scenario> make_scenarios(std::uint64_t alpha) {
  std::vector<Scenario> scenarios;

  {  // Cyclic scan over a star: thrashes any fetch-on-miss policy.
    Tree tree = trees::star(12);
    Trace trace;
    for (int i = 0; i < 30000; ++i) {
      trace.push_back(positive(static_cast<NodeId>(1 + i % 12)));
    }
    scenarios.push_back({"cyclic scan", std::move(tree), std::move(trace), 6});
  }
  {  // Zipf: friendly, recency-exploitable; caching clearly pays off.
    Rng rng(5);
    Tree tree = trees::random_recursive(500, rng);
    Trace trace = workload::zipf_trace(tree, 80000, 1.4, 0.05, rng);
    scenarios.push_back({"zipf", std::move(tree), std::move(trace), 80});
  }
  {  // Hot/cold subtree blocks: a subtree turns hot (uniform positives over
     // its nodes — no single node saturates alone), then suffers an update
     // storm (uniform negatives). Pooled counters fetch AND evict the whole
     // cap promptly; LocalTC dismantles caps node by node from the top and
     // keeps paying for updates meanwhile.
    Rng rng(9);
    Tree tree = trees::random_recursive(400, rng);
    Trace trace;
    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < tree.size(); ++v) {
      if (tree.subtree_size(v) >= 12 && tree.subtree_size(v) <= 50) {
        candidates.push_back(v);
      }
    }
    for (int block = 0; block < 50; ++block) {
      const NodeId hot = rng.pick(candidates);
      const std::uint32_t m = tree.subtree_size(hot);
      const auto pre = tree.preorder();
      const std::uint32_t base = tree.preorder_index(hot);
      for (std::uint64_t i = 0; i < 60ull * m; ++i) {
        trace.push_back(positive(pre[base + rng.below(m)]));
      }
      for (std::uint64_t i = 0; i < 2 * alpha * m; ++i) {
        trace.push_back(negative(pre[base + rng.below(m)]));
      }
    }
    scenarios.push_back(
        {"hot/cold subtrees", std::move(tree), std::move(trace), 120});
  }
  return scenarios;
}

}  // namespace

int main() {
  sim::print_experiment_banner(
      "E12", "Ablation — aggregate saturation & maximality vs local rules",
      "Quantify the value of counting requests across whole candidate "
      "changesets instead of per node");

  const std::uint64_t alpha = 8;
  ConsoleTable table({"scenario", "algorithm", "service", "reorg", "total",
                      "x TC"});
  for (auto& scenario : make_scenarios(alpha)) {
    std::vector<std::unique_ptr<OnlineAlgorithm>> algorithms;
    algorithms.push_back(std::make_unique<TreeCache>(
        scenario.tree,
        TreeCacheConfig{.alpha = alpha, .capacity = scenario.capacity}));
    algorithms.push_back(std::make_unique<LocalTc>(
        scenario.tree,
        LocalTcConfig{.alpha = alpha, .capacity = scenario.capacity}));
    algorithms.push_back(std::make_unique<LruClosure>(
        scenario.tree,
        LruClosureConfig{.alpha = alpha, .capacity = scenario.capacity}));
    algorithms.push_back(std::make_unique<NeverCache>(scenario.tree));

    double tc_total = 0.0;
    for (const auto& alg : algorithms) {
      const auto result = sim::run_trace(*alg, scenario.trace);
      const auto total = static_cast<double>(result.cost.total());
      if (tc_total == 0.0) tc_total = total;
      table.add_row({scenario.name, std::string(alg->name()),
                     ConsoleTable::fmt(result.cost.service),
                     ConsoleTable::fmt(result.cost.reorg),
                     ConsoleTable::fmt(result.cost.total()),
                     ConsoleTable::fmt(total / tc_total, 2)});
    }
  }
  table.print();
  sim::print_note(
      "reading",
      "cyclic scan: fetch-on-miss collapses (2*alpha churn per request) "
      "while TC stays within ~2x of the bypass floor; hot/cold subtrees: "
      "pooled counters evict stale caps promptly while LocalTC keeps "
      "paying for updates during its node-by-node dismantling");
  return 0;
}
