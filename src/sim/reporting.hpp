// Standardized result output.
//
// Console side: every experiment prints a banner naming the paper artifact
// it reproduces, the claim, and then its table(s).
//
// JSON side: machine-readable documents for the CLI (`--json`), the grid
// engine and the benches. Every top-level document carries a "schema" tag:
//   treecache.run/2    one scenario        {schema, scenario, result}
//                      (v2: result gained wall_seconds/requests_per_second,
//                      so every --json run doubles as a perf sample)
//   treecache.grid/1   algorithm × workload grid    {schema, cells: [...]}
//   treecache.fib/3    closed-loop FIB sweep        {schema, cells: [...]}
//                      (v2: every cell carries an "engine" object — the
//                      closed loop now shards by top-level prefix;
//                      v3: "engine" no longer has a "feedback" bound)
//   treecache.throughput/2   sharded-engine run
//                      {schema, scenario, engine, result, per_shard: [...]}
//                      (v2: engine no longer names a scan-kernel set)
//   treecache.bench/1  bench table   {schema, experiment, title, rows: [...]}
// The bench emitter writes BENCH_<id>.json into $TREECACHE_BENCH_JSON_DIR,
// which is how CI captures the perf trajectory as artifacts.
#pragma once

#include <string>
#include <string_view>

#include "sim/fib_engine.hpp"
#include "sim/scenario.hpp"
#include "util/json.hpp"

namespace treecache::sim {

/// Prints a framed banner:
///   == E3: Theorem 6.1 — per-request work ==
///   claim: <one line from the paper>
void print_experiment_banner(std::string_view id, std::string_view title,
                             std::string_view paper_claim);

/// Prints a short labelled key-value line ("  <label>: <value>").
void print_note(std::string_view label, std::string_view value);

/// Cost/accounting object of one simulator run.
[[nodiscard]] util::Json to_json(const RunResult& result);

/// {algorithm, workload, seed, params} of one workload scenario;
/// {algorithm, seed, params, trace} of one trace scenario.
[[nodiscard]] util::Json to_json(const Scenario& scenario);

/// Full single-run document (schema treecache.run/2).
[[nodiscard]] util::Json scenario_json(const ScenarioResult& result);

/// Full grid document over run_grid cells (schema treecache.grid/1).
[[nodiscard]] util::Json grid_json(const std::vector<ScenarioResult>& cells);

/// One closed-loop FIB cell: {algorithm, seed, params, engine, result} —
/// "engine" is {shards_requested, shards, threads, batch}, the closed
/// loop's sharding geometry (results are thread-count invariant).
[[nodiscard]] util::Json to_json(const FibScenarioResult& result);

/// Full FIB sweep document (schema treecache.fib/3).
[[nodiscard]] util::Json fib_sweep_json(
    const std::vector<FibScenarioResult>& cells);

/// Full sharded-engine document (schema treecache.throughput/2): the
/// scenario, the engine geometry (requested and planned shard counts,
/// workers, batch), the aggregate result and one entry per shard.
[[nodiscard]] util::Json throughput_json(const Scenario& scenario,
                                         const engine::EngineConfig& config,
                                         const engine::ShardPlan& plan,
                                         const engine::EngineResult& result);

/// Machine-readable companion to a bench's console tables. When
/// $TREECACHE_BENCH_JSON_DIR is set, wraps `rows` (an array of row
/// objects) in the treecache.bench/1 envelope, writes it to
/// <dir>/BENCH_<id>.json and returns the path; otherwise a no-op
/// returning "".
std::string write_bench_json(std::string_view id, std::string_view title,
                             util::Json rows);

}  // namespace treecache::sim
