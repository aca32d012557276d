// The benchmark's three workloads and the two ways of running them.
//
// Why these three (all TC, α = 16, capacity 512; each stresses a different
// set of layers, so every planned optimization has one workload that shows
// it and one that must not move):
//   zipf-1x1          open loop, Zipf(1.0) with 10% negatives over the
//                     37,449-node complete 8-ary tree, unsharded through
//                     sim::run_source. Request generation dominates and no
//                     engine runs: a Zipf-sampler or accounting-sink change
//                     shows here, an engine change must not.
//   deep-uniform-8x3  open loop, uniform requests with 10% negatives over
//                     the 32,761-node 13-level universe (eight 12-level
//                     binary subtrees), 8 shards on 3 workers through
//                     ShardedEngine::run. The uniform source splits by
//                     replication, so the engine runs one part per shard
//                     on its workers with no demux or worker queue: each
//                     worker regenerates the whole stream and keeps its
//                     shards' requests. Generation (~108 ns per request
//                     kept) and TC's 13-level walks (~87 ns) carry the
//                     time, with no Zipf draw on the path; a change to
//                     the split, uniform generation or TC shows here.
//   fib-mrt-8x3       the closed-loop router: fib::RouterSource split into
//                     per-shard mirrors, run through run_split with 8
//                     shards on 3 workers, over the IPv4 table ingested
//                     from a synthetic 1M-route + 50k-update MRT feed.
//                     The only workload with feedback, with the engine's
//                     demux and worker queues, with writes (α-chunk
//                     updates) beside reads, with RIB ingest inside set-up,
//                     and with per-node state larger than the L2 cache.
// The per-request figures are traced medians over seeds 1-3 on a 4-vCPU
// KVM guest; perfbench/reference.json holds them all.
//
// Modes. An untraced run sets the workload up several times (setup_s is
// their median), warms up once, then repeats the fixed-size stream for the
// requested seconds and reports per-rep medians of the end-to-end metrics.
// A traced run sets up once with every layer timed apart, repeats the
// stream untraced and then through TracedSource decorators, runs the
// standalone per-shard pass and the `none` floor, and reports the
// per-layer metrics; its spans go to a Chrome trace-event file. Both
// modes check their outputs (see run_workload).
#pragma once

#include <cstdint>
#include <string>

#include "util/json.hpp"

namespace perfbench {

/// Writes the inputs of `workload` for `seed` into the existing directory
/// `dir`: the tree or MRT feed plus params.txt (written last, so its
/// presence marks a complete set). The program under test reads only these.
void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir);

struct RunOptions {
  std::string inputs;      // a directory written by generate_inputs
  double seconds = 0.0;    // length of the timed window
  bool trace = false;      // per-layer (traced) run instead of end-to-end
  std::string trace_out;   // Chrome trace-event file of a traced run
};

/// Runs one workload and returns its result document: correct, attempted,
/// failed, metrics (name → {value, unit}), the checked outputs and the
/// individual checks.
[[nodiscard]] treecache::util::Json run_workload(const RunOptions& options);

}  // namespace perfbench
