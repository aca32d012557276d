// Streaming replay of real RIB churn against the cache: the fib-real
// workload's engine-facing source.
//
// The replay FIB is built over every prefix the feed ever named (so a
// withdrawn route keeps its tree node — in the paper's model an update
// to a rule is an update to its node either way). Each feed update then
// becomes the paper's α-chunk of negative requests to that rule's node,
// interleaved with Zipf-distributed LPM lookup traffic:
//
//   [L lookups] [α negatives @ event 0] [L lookups] [α negatives @ 1] ...
//   ... [tail lookups]
//
// Open loop with an exact size_hint; fork() replays the identical stream
// (the replay itself is shared immutably). Like every open loop it shards
// through the engine's demux, which generates it once, and runs
// bit-identically across every shard/thread geometry; the default
// fork-based split() is a per-shard reference replay
// (SplitKind::kReplicated) that the engine does not use.
#pragma once

#include <cstdint>
#include <memory>

#include "core/request_source.hpp"
#include "rib/ingest.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace treecache::rib {

/// The immutable product of a feed ingest that replay runs on: the FIB
/// over snapshot ∪ churned prefixes, plus the churn events resolved to
/// tree nodes, in feed order. Shared (shared_ptr<const>) between a
/// source and all its forks.
template <typename PrefixT>
struct BasicChurnReplay {
  fib::BasicRuleTree<PrefixT> fib;
  std::vector<NodeId> churn_nodes;
};

using ChurnReplay = BasicChurnReplay<fib::Prefix>;
using ChurnReplay6 = BasicChurnReplay<fib::Prefix6>;

/// Builds a family's replay from its ingest: rule tree over `touched`,
/// churn prefixes resolved to node ids (every churned prefix is in
/// `touched`, so resolution cannot miss).
template <typename PrefixT>
[[nodiscard]] BasicChurnReplay<PrefixT> make_churn_replay(
    const BasicIngest<PrefixT>& ingest);

/// Replay knobs (the fib-real workload params).
struct ChurnReplayConfig {
  std::uint64_t lookups_per_event = 16;  // Zipf lookups before each update
  std::uint64_t tail_lookups = 0;        // lookups after the last update
  double zipf_skew = 1.0;
  std::uint64_t alpha = 16;  // negatives per update (the paper's α)
};

template <typename PrefixT>
class BasicRibChurnSource final : public RequestSource {
 public:
  BasicRibChurnSource(std::shared_ptr<const BasicChurnReplay<PrefixT>> replay,
                      const ChurnReplayConfig& config, Rng rng);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override;
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override;
  [[nodiscard]] std::unique_ptr<RequestSource> fork() const override;

 private:
  [[nodiscard]] NodeId sample_lookup();

  std::shared_ptr<const BasicChurnReplay<PrefixT>> replay_;
  ChurnReplayConfig config_;
  std::vector<NodeId> ranked_;  // Zipf ranks: shuffled non-root rules
  ZipfSampler zipf_;
  Rng start_rng_;  // state AFTER the rank permutation draw
  Rng rng_;
  std::uint64_t total_ = 0;  // exact stream length in requests
  std::uint64_t emitted_ = 0;
  std::size_t event_ = 0;
  std::uint64_t lookups_pending_ = 0;
  std::uint64_t negatives_pending_ = 0;
  std::uint64_t tail_pending_ = 0;
  NodeId chunk_node_ = 0;
};

using RibChurnSource = BasicRibChurnSource<fib::Prefix>;
using RibChurnSource6 = BasicRibChurnSource<fib::Prefix6>;

}  // namespace treecache::rib
