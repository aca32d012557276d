#include "rib/workloads.hpp"

#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

namespace treecache::rib {

bool is_real_fib_workload_name(std::string_view name) {
  return name == "fib-real";
}

std::vector<std::string> feed_paths_from_params(const sim::Params& params) {
  const std::string joined = params.get("rib-feed", "");
  TC_CHECK(!joined.empty(),
           "fib-real needs --rib-feed <dump.feed>[,<updates.feed>...]");
  std::vector<std::string> paths;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = joined.find(',', start);
    const std::string part = comma == std::string::npos
                                 ? joined.substr(start)
                                 : joined.substr(start, comma - start);
    if (!part.empty()) paths.push_back(part);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  TC_CHECK(!paths.empty(), "empty --rib-feed path list");
  return paths;
}

RealFibReplay build_real_fib(const sim::Params& params) {
  const auto family = params.get_u64("family", 4);
  TC_CHECK(family == 4 || family == 6, "family must be 4 or 6");
  const IngestResult ingest = ingest_feed(feed_paths_from_params(params));
  RealFibReplay replay;
  replay.family = static_cast<int>(family);
  if (family == 6) {
    TC_CHECK(!ingest.v6.empty(),
             "the feed carries no IPv6 records (family 6 requested)");
    replay.v6 = std::make_shared<const ChurnReplay6>(
        make_churn_replay(ingest.v6));
  } else {
    TC_CHECK(!ingest.v4.empty(),
             "the feed carries no IPv4 records (family 4 requested)");
    replay.v4 = std::make_shared<const ChurnReplay>(
        make_churn_replay(ingest.v4));
  }
  return replay;
}

namespace {

/// Per-path (size, mtime) stamp folded into the substrate cache key, so
/// a feed file rewritten between runs re-ingests instead of silently
/// replaying the stale cached tree. Unreadable paths stamp as 0/0 and
/// fail later in build_real_fib with the real open error.
std::string feed_stamp(const std::vector<std::string>& paths) {
  std::string stamp;
  for (const std::string& path : paths) {
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    std::uint64_t mtime = 0;
    const auto written = std::filesystem::last_write_time(path, ec);
    if (!ec) {
      mtime = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              written.time_since_epoch())
              .count());
    }
    stamp += path + "|" + std::to_string(size) + "|" +
             std::to_string(mtime) + ";";
  }
  return stamp;
}

}  // namespace

const RealFibReplay& shared_real_fib(const sim::Params& params) {
  // Key = everything build_real_fib reads — the path list and the
  // family — plus each file's size+mtime stamp (a rewritten feed is a
  // different substrate).
  using Key = std::tuple<std::string, std::string, std::uint64_t>;
  const Key key{params.get("rib-feed", ""),
                feed_stamp(feed_paths_from_params(params)),
                params.get_u64("family", 4)};

  static std::mutex mutex;
  static std::map<Key, std::unique_ptr<RealFibReplay>> cache;
  const std::scoped_lock lock(mutex);
  std::unique_ptr<RealFibReplay>& slot = cache[key];
  if (slot == nullptr) {
    slot = std::make_unique<RealFibReplay>(build_real_fib(params));
  }
  return *slot;
}

ChurnReplayConfig churn_config_from_params(const sim::Params& params,
                                           bool has_churn) {
  return ChurnReplayConfig{
      .lookups_per_event = params.get_u64("lookups-per-event", 16),
      .tail_lookups = params.get_u64("tail-lookups",
                                     has_churn ? 0 : std::uint64_t{65536}),
      .zipf_skew = params.get_double("skew", 1.0),
      .alpha = params.alpha()};
}

namespace {

const sim::WorkloadRegistrar kRegisterFibReal{
    "fib-real",
    "real RIB feed replay: dump+update churn as alpha-chunk rule updates "
    "interleaved with Zipf LPM lookups (--rib-feed d.feed[,u.feed] "
    "[--family 4|6])",
    [](const Tree& tree, const sim::Params& p, std::uint64_t seed)
        -> std::unique_ptr<RequestSource> {
      const RealFibReplay& replay = shared_real_fib(p);
      TC_CHECK(tree == replay.tree(),
               "fib-real runs on the rule tree rebuilt from its feed; build "
               "it with rib::shared_real_fib(params).tree() (CLI: `--tree "
               "fib-real` with the same --rib-feed/--family)");
      const ChurnReplayConfig config =
          churn_config_from_params(p, replay.churn_events() > 0);
      // shared_real_fib entries live for the process, so the source's
      // shared replay stays valid however long it streams.
      if (replay.family == 6) {
        return std::make_unique<RibChurnSource6>(replay.v6, config,
                                                 Rng(seed));
      }
      return std::make_unique<RibChurnSource>(replay.v4, config, Rng(seed));
    }};

}  // namespace

}  // namespace treecache::rib
