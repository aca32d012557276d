#include "fib/router_sim.hpp"

namespace treecache::fib {

RouterSimResult run_router_sim(const RuleTree& rules, OnlineAlgorithm& alg,
                               const RouterSimConfig& config) {
  TC_CHECK(&alg.cache().tree() == &rules.tree,
           "algorithm must run on the rule tree");
  // Only packet events advance result.packets, so an update probability of
  // 1 (or more) would never terminate the event loop.
  TC_CHECK(config.update_probability >= 0.0 &&
               config.update_probability < 1.0,
           "update probability must lie in [0, 1) so packet events can "
           "finish the run");
  Rng rng(config.seed);
  const PacketSampler sampler(rules, config.zipf_skew, rng);
  RouterSimResult result;

  while (result.packets < config.packets) {
    if (rng.chance(config.update_probability)) {
      // A BGP-style update to a Zipf-popular rule. The controller updates
      // its full table for free; a cached copy on the switch costs α,
      // modelled as α negative requests (Appendix B).
      const NodeId rule = sampler.sample_rule(rng);
      ++result.updates;
      if (alg.cache().contains(rule)) ++result.cached_updates;
      for (std::uint64_t i = 0; i < config.alpha; ++i) {
        alg.step(negative(rule));
      }
      continue;
    }

    const auto [addr, full_match] = sampler.sample_packet(rng);
    // The switch looks up the packet over its cached rules only: the
    // deepest cached rule on the address's descent from the root.
    NodeId cached_match = kNoNode;
    for (NodeId v = rules.tree.root(); v != kNoNode;
         v = rules.child_containing(v, addr)) {
      if (alg.cache().contains(v)) cached_match = v;
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
        alg.step(positive(full_match));
      }
    } else {
      // Only the artificial default rule matched: detour via controller.
      ++result.misses;
      alg.step(positive(full_match));
    }
  }
  result.algorithm_cost = alg.cost();
  return result;
}

}  // namespace treecache::fib
