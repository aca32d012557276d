// Controller/switch simulation of Figure 1 — the self-contained reference
// event loop. Production paths run the same loop through the engine
// instead: per-shard mirrors (fib/router_source.hpp) emit each packet as a
// packet request, and engine::ShardedEngine::run_split steps it through
// the instance's step_batch, which resolves it against the instance's
// cache. Equality of the two is enforced by tests/test_fib_engine.cpp,
// and per shard of a sharded run by tests/test_engine_closed_loop.cpp.
//
// The switch holds the cached subforest of rules; packets are looked up by
// LPM over the cached rules only: the deepest cached rule on the address's
// descent through the rule tree. A miss (no cached rule matches beyond the
// artificial default) costs 1 — the packet detours via the controller,
// which then feeds the corresponding positive request to the caching
// algorithm. Rule updates cost α when the rule is cached (a chunk of α
// negative requests, Appendix B).
//
// The simulation also *proves the model's point* operationally: it checks
// on every packet that LPM over the cached subforest never resolves to a
// wrong (less specific) rule — the subforest invariant makes partial FIBs
// forwarding-correct. It is the oracle for that: it walks the whole
// descent, where the engine's packet lookup (OnlineAlgorithm::step_batch)
// relies on the invariant and reads only the match's cached flag. Any
// violation is counted in forwarding_errors (and must be zero for every
// subforest-invariant algorithm). If a violation does occur, the
// controller detects the stray flow and detours it, so the mis-forwarded
// packet is charged and reported to the caching algorithm exactly like a
// miss (a positive request for the full-table match) rather than silently
// disappearing from the online instance.
#pragma once

#include <cstdint>

#include "core/online_algorithm.hpp"
#include "engine/shard_plan.hpp"
#include "fib/traffic.hpp"

namespace treecache::fib {

struct RouterSimConfig {
  std::size_t packets = 100000;
  double zipf_skew = 1.0;
  /// Chance per event that a rule update arrives instead of a packet.
  double update_probability = 0.0;
  std::uint64_t alpha = 16;  // must match the algorithm's α
  std::uint64_t seed = 1;
};

struct RouterSimResult {
  std::uint64_t packets = 0;  // = hits + misses + forwarding_errors
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;           // controller detours (no cached match)
  std::uint64_t updates = 0;          // rule-update events
  std::uint64_t cached_updates = 0;   // updates that hit a cached rule
  /// Packets a cached rule mis-forwarded (then corrected via controller
  /// detour). MUST stay 0 for subforest-invariant algorithms.
  std::uint64_t forwarding_errors = 0;
  Cost algorithm_cost;

  /// Aggregates per-shard slices of one event stream (the engine's mirror
  /// split): every counter and the cost, field by field — so a new counter
  /// added here is summed everywhere, not silently dropped from sharded
  /// aggregates.
  RouterSimResult& operator+=(const RouterSimResult& other) {
    packets += other.packets;
    hits += other.hits;
    misses += other.misses;
    updates += other.updates;
    cached_updates += other.cached_updates;
    forwarding_errors += other.forwarding_errors;
    algorithm_cost += other.algorithm_cost;
    return *this;
  }

  [[nodiscard]] double hit_rate() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(packets);
  }
  [[nodiscard]] double miss_rate() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(misses) /
                              static_cast<double>(packets);
  }
};

/// Runs the event loop against `alg` (whose tree must be rules.tree): the
/// trivial one-shard plan's shard 0 of the overload below.
[[nodiscard]] RouterSimResult run_router_sim(const RuleTree& rules,
                                             OnlineAlgorithm& alg,
                                             const RouterSimConfig& config);

/// The event loop as line card `shard` of `plan` (a plan of rules.tree)
/// sees it, against `alg`, whose tree must be plan.shard_tree(shard). The
/// global stream is drawn exactly as above and the run ends after
/// config.packets packets of the whole stream, but only the events whose
/// rule `shard` owns reach `alg`, in shard-local ids, and only they are
/// counted. The card's cached-LPM walk reads the default rule as local
/// node 0: shard 0 holds it, every other shard a replica.
[[nodiscard]] RouterSimResult run_router_sim(const RuleTree& rules,
                                             OnlineAlgorithm& alg,
                                             const RouterSimConfig& config,
                                             const engine::ShardPlan& plan,
                                             std::size_t shard);

}  // namespace treecache::fib
