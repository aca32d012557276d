#include "baselines/static_opt.hpp"

#include <algorithm>
#include <bit>

#include "sim/registry.hpp"

namespace treecache {

namespace {

/// DP table entry per node: best[j] = max weight using at most j cached
/// nodes within T(v), for j = 0..min(k, |T(v)|).
using Profile = std::vector<std::uint64_t>;

struct DpState {
  const Tree* tree;
  std::span<const std::uint64_t> weight;
  std::size_t capacity;
  std::vector<Profile> profile;          // per node
  std::vector<std::uint64_t> subtree_w;  // Σ weight over T(v)
};

/// Bottom-up computation over reverse preorder (children before parents).
void compute_profiles(DpState& dp) {
  const Tree& tree = *dp.tree;
  dp.profile.assign(tree.size(), {});
  dp.subtree_w.assign(tree.size(), 0);
  for (const NodeId v : tree.postorder()) {
    dp.subtree_w[v] = dp.weight[v];
    for (const NodeId c : tree.children(v)) {
      dp.subtree_w[v] += dp.subtree_w[c];
    }
    const std::size_t cap =
        std::min<std::size_t>(dp.capacity, tree.subtree_size(v));
    // Knapsack over children: selections inside T(v) that do NOT take v are
    // unions of selections in the children's subtrees.
    Profile knap(cap + 1, 0);
    std::size_t merged = 0;  // combined size bound of processed children
    for (const NodeId c : tree.children(v)) {
      const Profile& child = dp.profile[c];
      const std::size_t child_cap = child.size() - 1;
      const std::size_t new_merged = std::min(cap, merged + child_cap);
      Profile next(new_merged + 1, 0);
      for (std::size_t a = 0; a <= merged; ++a) {
        for (std::size_t b = 0; b <= child_cap && a + b <= new_merged; ++b) {
          next[a + b] = std::max(next[a + b], knap[a] + child[b]);
        }
      }
      // Profiles are "budget at most j": make the merge monotone.
      for (std::size_t j = 1; j <= new_merged; ++j) {
        next[j] = std::max(next[j], next[j - 1]);
      }
      knap.assign(next.begin(), next.end());
      knap.resize(cap + 1, next.back());
      merged = new_merged;
    }
    // Taking v forces the whole subtree.
    Profile& prof = dp.profile[v];
    prof.assign(cap + 1, 0);
    for (std::size_t j = 0; j <= cap; ++j) {
      prof[j] = knap[std::min(j, merged)];
      if (j >= tree.subtree_size(v)) {
        prof[j] = std::max(prof[j], dp.subtree_w[v]);
      }
    }
    // Enforce monotonicity in the budget.
    for (std::size_t j = 1; j <= cap; ++j) {
      prof[j] = std::max(prof[j], prof[j - 1]);
    }
  }
}

/// Walks the DP decisions to recover the chosen antichain of subtree roots.
void reconstruct(const DpState& dp, NodeId v, std::size_t budget,
                 std::vector<NodeId>& roots) {
  const Tree& tree = *dp.tree;
  const std::size_t cap = dp.profile[v].size() - 1;
  const std::size_t j = std::min(budget, cap);
  const std::uint64_t target = dp.profile[v][j];
  if (target == 0) return;
  if (j >= tree.subtree_size(v) && target == dp.subtree_w[v]) {
    roots.push_back(v);
    return;
  }
  // Distribute the budget over children to reproduce the knapsack value.
  // Greedy re-derivation: process children in order, for each pick the
  // smallest budget share that, combined with the best achievable from the
  // remaining children, still attains the target.
  const auto range = tree.children(v);
  const std::vector<NodeId> kids(range.begin(), range.end());
  // suffix_best[i][b]: best weight from children i.. with budget b.
  const std::size_t m = kids.size();
  std::vector<Profile> suffix(m + 1, Profile(j + 1, 0));
  for (std::size_t i = m; i-- > 0;) {
    const Profile& child = dp.profile[kids[i]];
    const std::size_t child_cap = child.size() - 1;
    for (std::size_t b = 0; b <= j; ++b) {
      std::uint64_t best = 0;
      for (std::size_t share = 0; share <= std::min(b, child_cap); ++share) {
        best = std::max(best, child[share] + suffix[i + 1][b - share]);
      }
      suffix[i][b] = best;
    }
  }
  std::size_t remaining = j;
  for (std::size_t i = 0; i < m; ++i) {
    const Profile& child = dp.profile[kids[i]];
    const std::size_t child_cap = child.size() - 1;
    for (std::size_t share = 0; share <= std::min(remaining, child_cap);
         ++share) {
      if (child[share] + suffix[i + 1][remaining - share] ==
          suffix[i][remaining]) {
        reconstruct(dp, kids[i], share, roots);
        remaining -= share;
        break;
      }
    }
  }
}

}  // namespace

StaticOptResult best_static_subforest(const Tree& tree,
                                      std::span<const std::uint64_t> weight,
                                      std::size_t capacity) {
  TC_CHECK(weight.size() == tree.size(), "one weight per node required");
  DpState dp{&tree, weight, capacity, {}, {}};
  compute_profiles(dp);

  StaticOptResult result;
  const std::size_t root_cap = dp.profile[tree.root()].size() - 1;
  result.covered_weight = dp.profile[tree.root()][root_cap];
  reconstruct(dp, tree.root(), capacity, result.chosen_roots);
  for (const NodeId r : result.chosen_roots) {
    result.cached_nodes += tree.subtree_size(r);
  }
  TC_CHECK(result.cached_nodes <= capacity, "reconstruction over budget");
  // Cross-check the reconstruction reproduces the DP value.
  std::uint64_t recovered = 0;
  for (const NodeId r : result.chosen_roots) recovered += dp.subtree_w[r];
  TC_CHECK(recovered == result.covered_weight,
           "reconstruction does not match the DP optimum");
  return result;
}

std::vector<std::uint64_t> positive_weights(const Tree& tree,
                                            const Trace& trace) {
  std::vector<std::uint64_t> weight(tree.size(), 0);
  for (const Request& r : trace) {
    TC_CHECK(r.node < tree.size(), "request outside the tree");
    if (r.sign == Sign::kPositive) ++weight[r.node];
  }
  return weight;
}

std::uint64_t static_cache_cost(const Tree& tree, const Trace& trace,
                                std::uint64_t alpha,
                                const StaticOptResult& chosen) {
  std::vector<std::uint8_t> cached(tree.size(), 0);
  for (const NodeId r : chosen.chosen_roots) {
    std::vector<NodeId> stack{r};
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      cached[v] = 1;
      for (const NodeId c : tree.children(v)) stack.push_back(c);
    }
  }
  std::uint64_t cost = alpha * chosen.cached_nodes;
  for (const Request& r : trace) {
    const bool pays = r.sign == Sign::kPositive ? !cached[r.node]
                                                : static_cast<bool>(cached[r.node]);
    if (pays) ++cost;
  }
  return cost;
}

StaticOptResult best_static_subforest_bruteforce(
    const Tree& tree, std::span<const std::uint64_t> weight,
    std::size_t capacity) {
  const std::size_t n = tree.size();
  TC_CHECK(n <= 18, "brute force limited to 18 nodes");
  StaticOptResult best;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) > capacity) continue;
    bool valid = true;
    std::uint64_t value = 0;
    for (NodeId v = 0; v < n && valid; ++v) {
      if (!(mask >> v & 1)) continue;
      value += weight[v];
      for (const NodeId c : tree.children(v)) {
        if (!(mask >> c & 1)) {
          valid = false;
          break;
        }
      }
    }
    if (valid && value > best.covered_weight) {
      best.covered_weight = value;
      best.cached_nodes = static_cast<std::size_t>(std::popcount(mask));
      best.chosen_roots.clear();
      for (NodeId v = 0; v < n; ++v) {
        if ((mask >> v & 1) &&
            (tree.parent(v) == kNoNode || !(mask >> tree.parent(v) & 1))) {
          best.chosen_roots.push_back(v);
        }
      }
    }
  }
  return best;
}

namespace {
const sim::OfflineEvaluatorRegistrar kRegisterStatic{
    "static",
    "optimal static subforest (tree-knapsack DP) evaluated on the trace",
    [](const Tree& tree, const Trace& trace, const sim::Params& p) {
      const auto weights = positive_weights(tree, trace);
      const auto chosen =
          best_static_subforest(tree, weights, p.capacity());
      return static_cache_cost(tree, trace, p.alpha(), chosen);
    }};
}  // namespace

}  // namespace treecache
