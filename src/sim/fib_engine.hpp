// Closed-loop FIB scenario engine — the registry-resolvable face of the
// paper's Figure-1 switch + controller event loop over a fib::RouterSource
// stream (fib/router_sim.hpp keeps the self-contained reference loop the
// stream is tested against). Every scenario splits the stream into one
// closed-loop router mirror per shard (one for a single-shard plan) and
// runs them through engine::ShardedEngine::run_split, the engine's one
// closed-loop path.
//
// A FibScenario names an algorithm (AlgorithmRegistry key) and carries one
// Params bag using the same keys as the registered fib* workloads: the RIB
// block (rules, deagg, max-len, rib-seed) defines the rule tree and the
// traffic block (packets, skew, update-prob, alpha) defines the packet and
// update stream. run_fib_sweep runs algorithm × skew × capacity × alpha
// grids cell by cell, one traffic seed per point drawn up front
// (point_seeds), so results are deterministic and every algorithm at one
// traffic point sees the identical packet stream.
#pragma once

#include <string>
#include <vector>

#include "engine/sharded_engine.hpp"
#include "fib/router_sim.hpp"
#include "fib/rule_tree.hpp"
#include "sim/registry.hpp"

namespace treecache::sim {

struct FibScenario {
  std::string algorithm;   // AlgorithmRegistry key
  Params params;           // RIB + traffic + algorithm knobs, one bag
  std::uint64_t seed = 1;  // traffic seed ("rib-seed" seeds the table)
  /// Engine geometry, the full knob set — shards/threads/batch/pin —
  /// shared verbatim with the open-loop `treecache throughput` path (not
  /// part of the scenario semantics; the line-card model: each shard runs
  /// its own instance with the full capacity over its top-level-prefix
  /// slice, fed by a per-shard router mirror off one shared event
  /// producer). The closed loop runs through ShardedEngine::run_split at
  /// every shard count; results are bit-identical for every
  /// `threads`/`batch` value.
  engine::EngineConfig engine;
};

struct FibScenarioResult {
  FibScenario scenario;
  /// The sum of the per-shard mirror statistics. Every packet and update
  /// event is owned by exactly one shard, so packets and updates always add
  /// up to the unsharded event stream; hits/misses are per the line-card
  /// model.
  fib::RouterSimResult router;
  std::size_t shards = 1;   // planned (may be fewer than requested)
  std::size_t threads = 1;  // workers actually used
};

/// Router configuration from the shared parameter keys: packets (default
/// 100000), skew (1.0), update-prob (0.01, below 1), alpha; `seed` drives
/// traffic. A bad value is refused naming its key.
[[nodiscard]] fib::RouterSimConfig fib_router_config(const Params& params,
                                                     std::uint64_t seed);

/// Runs one closed-loop scenario over a prebuilt rule tree. The algorithm
/// resolves through the registry and is configured from the same params
/// that configure the router, so its α always matches the update cost.
[[nodiscard]] FibScenarioResult run_fib_scenario(const fib::RuleTree& rules,
                                                 const FibScenario& scenario);

/// Convenience overload: builds the rule tree from scenario.params first
/// (fib::rule_tree_from_params).
[[nodiscard]] FibScenarioResult run_fib_scenario(const FibScenario& scenario);

/// Sweep axes; every axis needs at least one value. Cells are ordered
/// algorithm-major, then skew, capacity, alpha (innermost).
struct FibSweepAxes {
  std::vector<std::string> algorithms;
  std::vector<double> skews{1.0};
  std::vector<std::size_t> capacities{64};
  std::vector<std::uint64_t> alphas{16};
};

/// Cross product over `base` params, one cell at a time. All algorithms at
/// one (skew, capacity, alpha) point share a traffic seed, so the sweep
/// compares algorithms on identical packet streams. `engine` sets the
/// geometry of every cell (CLI: `treecache fib --shards S --threads T
/// --batch B`).
[[nodiscard]] std::vector<FibScenarioResult> run_fib_sweep(
    const fib::RuleTree& rules, const FibSweepAxes& axes, const Params& base,
    std::uint64_t seed, engine::EngineConfig engine = {});

}  // namespace treecache::sim
