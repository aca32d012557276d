#include "sim/reporting.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "util/check.hpp"

namespace treecache::sim {

void print_experiment_banner(std::string_view id, std::string_view title,
                             std::string_view paper_claim) {
  std::string line = "== ";
  line.append(id);
  line.append(": ");
  line.append(title);
  line.append(" ==");
  std::printf("\n%s\n", line.c_str());
  if (!paper_claim.empty()) {
    std::printf("claim: %.*s\n", static_cast<int>(paper_claim.size()),
                paper_claim.data());
  }
  std::fflush(stdout);
}

void print_note(std::string_view label, std::string_view value) {
  std::printf("  %.*s: %.*s\n", static_cast<int>(label.size()), label.data(),
              static_cast<int>(value.size()), value.data());
  std::fflush(stdout);
}

namespace {

util::Json params_json(const Params& params) {
  util::Json out = util::Json::object();
  for (const auto& [key, value] : params.all()) out.set(key, value);
  return out;
}

}  // namespace

util::Json to_json(const RunResult& result) {
  return util::Json::object()
      .set("rounds", result.rounds)
      .set("service_cost", result.cost.service)
      .set("reorg_cost", result.cost.reorg)
      .set("total_cost", result.cost.total())
      .set("paid_requests", result.paid_requests)
      .set("paid_positive", result.paid_positive)
      .set("paid_negative", result.paid_negative)
      .set("fetched_nodes", result.fetched_nodes)
      .set("evicted_nodes", result.evicted_nodes)
      .set("phase_restarts", result.phase_restarts)
      .set("restart_evictions", result.restart_evictions)
      .set("max_cache_size", std::uint64_t{result.max_cache_size})
      .set("final_cache_size", std::uint64_t{result.final_cache_size})
      .set("wall_seconds", result.wall_seconds)
      .set("requests_per_second", result.requests_per_second());
}

util::Json to_json(const Scenario& scenario) {
  util::Json out = util::Json::object();
  out.set("algorithm", scenario.algorithm);
  if (!scenario.workload.empty()) out.set("workload", scenario.workload);
  out.set("seed", scenario.seed);
  out.set("params", params_json(scenario.params));
  if (!scenario.trace.empty()) out.set("trace", scenario.trace);
  return out;
}

util::Json scenario_json(const ScenarioResult& result) {
  return util::Json::object()
      .set("schema", "treecache.run/2")
      .set("scenario", to_json(result.scenario))
      .set("result", to_json(result.run));
}

util::Json grid_json(const std::vector<ScenarioResult>& cells) {
  util::Json rows = util::Json::array();
  for (const ScenarioResult& cell : cells) {
    rows.push(util::Json::object()
                  .set("scenario", to_json(cell.scenario))
                  .set("result", to_json(cell.run)));
  }
  return util::Json::object()
      .set("schema", "treecache.grid/1")
      .set("cells", std::move(rows));
}

util::Json to_json(const FibScenarioResult& result) {
  const fib::RouterSimResult& r = result.router;
  return util::Json::object()
      .set("algorithm", result.scenario.algorithm)
      .set("seed", result.scenario.seed)
      .set("params", params_json(result.scenario.params))
      // Geometry of the closed-loop run: planned shard count, the workers
      // actually used, and the batch size. Results are invariant to
      // threads/batch; shards > 1 reports the line-card model's aggregate.
      .set("engine",
           util::Json::object()
               .set("shards_requested",
                    std::uint64_t{result.scenario.engine.shards})
               .set("shards", std::uint64_t{result.shards})
               .set("threads", std::uint64_t{result.threads})
               .set("batch", std::uint64_t{result.scenario.engine.batch}))
      .set("result", util::Json::object()
                         .set("packets", r.packets)
                         .set("hits", r.hits)
                         .set("misses", r.misses)
                         .set("hit_rate", r.hit_rate())
                         .set("updates", r.updates)
                         .set("cached_updates", r.cached_updates)
                         .set("forwarding_errors", r.forwarding_errors)
                         .set("service_cost", r.algorithm_cost.service)
                         .set("reorg_cost", r.algorithm_cost.reorg)
                         .set("total_cost", r.algorithm_cost.total()));
}

util::Json fib_sweep_json(const std::vector<FibScenarioResult>& cells) {
  util::Json rows = util::Json::array();
  for (const FibScenarioResult& cell : cells) rows.push(to_json(cell));
  return util::Json::object()
      .set("schema", "treecache.fib/3")
      .set("cells", std::move(rows));
}

util::Json throughput_json(const Scenario& scenario,
                           const engine::EngineConfig& config,
                           const engine::ShardPlan& plan,
                           const engine::EngineResult& result) {
  util::Json per_shard = util::Json::array();
  for (std::size_t s = 0; s < result.per_shard.size(); ++s) {
    util::Json entry = util::Json::object()
                           .set("shard", std::uint64_t{s})
                           .set("nodes", std::uint64_t{plan.shard(s).nodes()})
                           .set("subtree_roots",
                                std::uint64_t{plan.shard(s).roots.size()});
    entry.set("result", to_json(result.per_shard[s]));
    per_shard.push(std::move(entry));
  }
  util::Json affinity = util::Json::array();
  for (const int cpu : result.worker_cpus) affinity.push(cpu);
  return util::Json::object()
      .set("schema", "treecache.throughput/2")
      .set("scenario", to_json(scenario))
      .set("engine",
           util::Json::object()
               .set("shards_requested", std::uint64_t{config.shards})
               .set("shards", std::uint64_t{result.shards})
               .set("threads", std::uint64_t{result.threads})
               .set("batch", std::uint64_t{config.batch})
               .set("pin", result.pinned)
               .set("affinity", std::move(affinity)))
      .set("result", to_json(result.total))
      .set("per_shard", std::move(per_shard));
}

std::string write_bench_json(std::string_view id, std::string_view title,
                             util::Json rows) {
  const char* dir = std::getenv("TREECACHE_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return "";
  TC_CHECK(rows.is_array(), "bench rows must be a JSON array");
  const util::Json doc = util::Json::object()
                             .set("schema", "treecache.bench/1")
                             .set("experiment", std::string(id))
                             .set("title", std::string(title))
                             .set("rows", std::move(rows));
  std::filesystem::create_directories(dir);
  const std::string path =
      (std::filesystem::path(dir) / ("BENCH_" + std::string(id) + ".json"))
          .string();
  util::save_json(path, doc);
  return path;
}

}  // namespace treecache::sim
