#include "rib/ingest.hpp"

namespace treecache::rib {

namespace {

template <typename PrefixT>
void apply_family(BasicIngest<PrefixT>& family, const FeedRecord& record,
                  const PrefixT& prefix) {
  switch (record.op) {
    case FeedOp::kDump:
      ++family.stats.dump_routes;
      if (!family.rib.route_add(prefix)) {
        ++family.stats.replaced_routes;
      }
      break;
    case FeedOp::kAnnounce:
      ++family.stats.announces;
      if (!family.rib.route_add(prefix)) {
        ++family.stats.replaced_routes;
      }
      family.churn.push_back(prefix);
      break;
    case FeedOp::kWithdraw:
      ++family.stats.withdraws;
      if (!family.rib.route_delete(prefix)) {
        ++family.stats.withdraw_misses;
      }
      family.churn.push_back(prefix);
      break;
  }
}

}  // namespace

void IngestResult::apply(const FeedRecord& record) {
  ++records;
  if (record.v6) {
    apply_family(v6, record, record.prefix6);
  } else {
    apply_family(v4, record, record.prefix4);
  }
}

namespace {

IngestResult drain_reader(FeedReader& reader) {
  IngestResult result;
  // Decoding a whole batch before applying it keeps the apply loop free of
  // decode work, so the table probes of neighbouring records overlap.
  for (auto batch = reader.next_batch(); !batch.empty();
       batch = reader.next_batch()) {
    for (const FeedRecord& record : batch) result.apply(record);
  }
  result.bytes = reader.bytes();
  return result;
}

}  // namespace

IngestResult ingest_feed(const std::vector<std::string>& paths) {
  FeedReader reader(paths);
  return drain_reader(reader);
}

IngestResult ingest_feed(const std::vector<std::string>& paths,
                         const FollowOptions& follow) {
  FeedReader reader(paths);
  reader.follow(follow);
  return drain_reader(reader);
}

std::vector<std::uint64_t> depth_histogram(const Tree& tree) {
  std::vector<std::uint64_t> histogram(tree.height(), 0);
  const auto n = static_cast<NodeId>(tree.size());
  for (NodeId v = 0; v < n; ++v) {
    ++histogram[tree.depth(v)];
  }
  return histogram;
}

}  // namespace treecache::rib
