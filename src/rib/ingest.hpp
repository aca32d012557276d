// Feed → RIB ingestion: applies a dump + update feed to per-family
// BasicRibTables, tracking the stats the `treecache ingest` report and
// the fib-real workload need. The churn list (announce/withdraw events
// in feed order) is kept as prefixes here; churn_source.hpp resolves it
// to rule-tree nodes once the replay FIB is built.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rib/feed.hpp"
#include "rib/rib_table.hpp"
#include "tree/tree.hpp"

namespace treecache::rib {

/// Per-family feed counters.
struct IngestStats {
  std::uint64_t dump_routes = 0;
  std::uint64_t announces = 0;
  std::uint64_t withdraws = 0;
  /// Withdraws of routes that were not live (feed noise; counted, not
  /// fatal — real update streams carry these).
  std::uint64_t withdraw_misses = 0;
  /// Announces that replaced an existing route (re-routes).
  std::uint64_t replaced_routes = 0;

  [[nodiscard]] std::uint64_t updates() const { return announces + withdraws; }
};

/// One family's ingest product: the RIB after all updates, the counters,
/// and the churn events in feed order. The RIB's entries (withdrawn routes
/// keep their slot) plus the churn prefixes are every prefix the feed
/// named: the replay FIB is built over that superset, so withdrawn routes
/// keep their tree node — in the paper's model an update to a rule is an
/// update to its node, whether the route survives or not.
template <typename PrefixT>
struct BasicIngest {
  BasicRibTable<PrefixT> rib;
  IngestStats stats;
  std::vector<PrefixT> churn;

  [[nodiscard]] bool empty() const {
    return stats.dump_routes == 0 && stats.updates() == 0;
  }
};

/// Both families plus whole-feed counters (one feed can mix families;
/// each record lands in its family's table).
struct IngestResult {
  BasicIngest<fib::Prefix> v4;
  BasicIngest<fib::Prefix6> v6;
  std::uint64_t records = 0;
  /// Feed bytes consumed (set by ingest_feed; zero for direct apply()).
  std::uint64_t bytes = 0;

  /// Applies one record to the matching family.
  void apply(const FeedRecord& record);
};

/// Streams `paths` through a FeedReader into a fresh IngestResult.
[[nodiscard]] IngestResult ingest_feed(const std::vector<std::string>& paths);

/// Tail-follow variant: keeps polling the last path for growth, so a
/// live feed ingests until the writer goes idle (see FeedReader::follow).
[[nodiscard]] IngestResult ingest_feed(const std::vector<std::string>& paths,
                                       const FollowOptions& follow);

/// Per-depth node counts (index = depth, root at 0): the tree-shape
/// histogram the ingest document reports.
[[nodiscard]] std::vector<std::uint64_t> depth_histogram(const Tree& tree);

}  // namespace treecache::rib
