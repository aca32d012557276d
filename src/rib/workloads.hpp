// The fib-real workload: replaying an ingested RIB feed against the
// cache, behind the WorkloadRegistry.
//
// A fib-real scenario is defined entirely by its Params bag: the feed
// block ("rib-feed" = comma-separated feed paths, "family" = 4|6) names
// the substrate (the replay FIB rebuilt from the feed), and the traffic
// block (lookups-per-event, tail-lookups, skew, alpha) names the request
// stream. Like the synthetic fib* family, the substrate is reproducible
// from the params alone — shared_real_fib() ingests each distinct feed
// once per process — and the registered factory verifies the tree it is
// handed matches the replay tree, so a grid cannot silently run feed
// churn on an unrelated tree.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rib/churn_source.hpp"
#include "rib/ingest.hpp"
#include "sim/registry.hpp"

namespace treecache::rib {

/// True for workload names of the real-feed family ("fib-real"), which
/// require their tree to come from shared_real_fib(params).tree().
[[nodiscard]] bool is_real_fib_workload_name(std::string_view name);

/// The "rib-feed" param split on commas; throws when absent or empty.
[[nodiscard]] std::vector<std::string> feed_paths_from_params(
    const sim::Params& params);

/// One ingested feed, ready to replay: the selected family's churn replay,
/// shared immutably with every source built over it.
struct RealFibReplay {
  int family = 4;  // 4 or 6, from the "family" param
  std::shared_ptr<const ChurnReplay> v4;    // set when family == 4
  std::shared_ptr<const ChurnReplay6> v6;   // set when family == 6

  [[nodiscard]] const Tree& tree() const {
    return family == 6 ? v6->fib.tree : v4->fib.tree;
  }
  [[nodiscard]] std::size_t churn_events() const {
    return family == 6 ? v6->churn_nodes.size() : v4->churn_nodes.size();
  }
};

/// Ingests the feed named by params ("rib-feed", "family") and builds the
/// replay. Throws when the selected family has no routes in the feed.
[[nodiscard]] RealFibReplay build_real_fib(const sim::Params& params);

/// build_real_fib behind a process-wide, thread-safe cache keyed by
/// (paths, per-file size+mtime, family), so a sweep instantiating many
/// fib-real cells ingests each feed once — while a feed file regenerated
/// mid-process is re-ingested rather than served stale. Entries live for
/// the process (like fib::shared_rule_tree).
[[nodiscard]] const RealFibReplay& shared_real_fib(const sim::Params& params);

/// The replay-traffic block: lookups-per-event (default 16),
/// tail-lookups (default 0 when the feed has churn, 65536 when it is a
/// pure snapshot — so a churn-free feed still produces a stream), skew,
/// alpha.
[[nodiscard]] ChurnReplayConfig churn_config_from_params(
    const sim::Params& params, bool has_churn);

}  // namespace treecache::rib
