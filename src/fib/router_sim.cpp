#include "fib/router_sim.hpp"

namespace treecache::fib {

RouterSimResult run_router_sim(const RuleTree& rules, OnlineAlgorithm& alg,
                               const RouterSimConfig& config) {
  return run_router_sim(rules, alg, config, engine::ShardPlan(rules.tree, 1),
                        0);
}

RouterSimResult run_router_sim(const RuleTree& rules, OnlineAlgorithm& alg,
                               const RouterSimConfig& config,
                               const engine::ShardPlan& plan,
                               std::size_t shard) {
  TC_CHECK(&plan.universe() == &rules.tree,
           "the shard plan must partition the rule tree");
  TC_CHECK(shard < plan.num_shards(), "shard index outside the plan");
  TC_CHECK(&alg.cache().tree() == &plan.shard_tree(shard),
           "algorithm must run on the shard's tree of the rule tree");
  // Only packet events advance the packet count, so an update probability of
  // 1 (or more) would never terminate the event loop.
  TC_CHECK(config.update_probability >= 0.0 &&
               config.update_probability < 1.0,
           "update probability must lie in [0, 1) so packet events can "
           "finish the run");
  Rng rng(config.seed);
  const PacketSampler sampler(rules, config.zipf_skew, rng);
  RouterSimResult result;
  // Whether the card caches global rule `v`. The rules on a packet's
  // descent are the match's ancestors: rules of the match's shard, plus the
  // default rule, which reads as the card's own copy (local node 0).
  const auto cached = [&](NodeId v) {
    if (plan.shard_of(v) == shard) {
      return alg.cache().contains(plan.to_local(v));
    }
    return v == rules.tree.root() && alg.cache().contains(0);
  };

  for (std::uint64_t packets = 0; packets < config.packets;) {
    if (rng.chance(config.update_probability)) {
      // A BGP-style update to a Zipf-popular rule. The controller updates
      // its full table for free; a cached copy on the switch costs α,
      // modelled as α negative requests (Appendix B).
      const NodeId rule = sampler.sample_rule(rng);
      if (plan.shard_of(rule) != shard) continue;
      ++result.updates;
      if (cached(rule)) ++result.cached_updates;
      for (std::uint64_t i = 0; i < config.alpha; ++i) {
        alg.step(negative(plan.to_local(rule)));
      }
      continue;
    }

    const auto [addr, full_match] = sampler.sample_packet(rng);
    ++packets;
    if (plan.shard_of(full_match) != shard) continue;
    // The switch looks up the packet over its cached rules only: the
    // deepest cached rule on the address's descent from the root.
    NodeId cached_match = kNoNode;
    for (NodeId v = rules.tree.root(); v != kNoNode;
         v = rules.child_containing(v, addr)) {
      if (cached(v)) cached_match = v;
    }
    ++result.packets;

    if (cached_match != kNoNode) {
      // A cached rule matched: forwarding is only correct if it is the
      // same rule the full table would pick.
      if (cached_match == full_match) {
        ++result.hits;
      } else {
        // Mis-forwarded. The controller detects the stray flow and detours
        // it, so the online algorithm sees (and is charged for) the same
        // positive request a miss would have produced; without it,
        // mis-forwarded flows would be invisible to the algorithm.
        ++result.forwarding_errors;
        alg.step(positive(plan.to_local(full_match)));
      }
    } else {
      // Only the artificial default rule matched: detour via controller.
      ++result.misses;
      alg.step(positive(plan.to_local(full_match)));
    }
  }
  result.algorithm_cost = alg.cost();
  return result;
}

}  // namespace treecache::fib
