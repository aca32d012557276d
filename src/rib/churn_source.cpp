#include "rib/churn_source.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "fib/rule_tree.hpp"

namespace treecache::rib {

template <typename PrefixT>
BasicChurnReplay<PrefixT> make_churn_replay(
    const BasicIngest<PrefixT>& ingest) {
  // Every prefix the feed named: the RIB's entries (withdrawn routes keep
  // theirs) plus the churn, whose withdraws may name a prefix that never
  // held a route. build_rule_tree sorts and drops the repeats.
  std::vector<PrefixT> named = ingest.rib.entries();
  named.insert(named.end(), ingest.churn.begin(), ingest.churn.end());
  fib::BasicRuleTree<PrefixT> fib_tree =
      fib::build_rule_tree(std::move(named));
  // build_rule_tree numbers the nodes in (length, bits) order, so the churn
  // sorted the same way resolves in one walk over the node ids.
  const std::vector<PrefixT>& churn = ingest.churn;
  const auto length_then_bits = [](const PrefixT& a, const PrefixT& b) {
    return std::tie(a.length, a.bits) < std::tie(b.length, b.bits);
  };
  std::vector<std::size_t> order(churn.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::sort(order, [&](std::size_t a, std::size_t b) {
    return length_then_bits(churn[a], churn[b]);
  });
  const std::vector<PrefixT>& prefix_of = fib_tree.prefix;
  std::vector<NodeId> churn_nodes(churn.size());
  NodeId v = 0;
  for (const std::size_t i : order) {
    while (v < prefix_of.size() && length_then_bits(prefix_of[v], churn[i])) {
      ++v;
    }
    TC_CHECK(v < prefix_of.size() && prefix_of[v] == churn[i],
             "churned prefix missing from the replay tree");
    churn_nodes[i] = v;
  }
  return BasicChurnReplay<PrefixT>{std::move(fib_tree),
                                   std::move(churn_nodes)};
}

template ChurnReplay make_churn_replay<fib::Prefix>(
    const BasicIngest<fib::Prefix>&);
template ChurnReplay6 make_churn_replay<fib::Prefix6>(
    const BasicIngest<fib::Prefix6>&);

namespace {

template <typename PrefixT>
const fib::BasicRuleTree<PrefixT>& replay_tree(
    const std::shared_ptr<const BasicChurnReplay<PrefixT>>& replay) {
  TC_CHECK(replay != nullptr, "replay must not be null");
  TC_CHECK(replay->fib.tree.size() >= 2,
           "feed produced a table with no routes");
  return replay->fib;
}

}  // namespace

template <typename PrefixT>
BasicRibChurnSource<PrefixT>::BasicRibChurnSource(
    std::shared_ptr<const BasicChurnReplay<PrefixT>> replay,
    const ChurnReplayConfig& config, Rng rng)
    : replay_(std::move(replay)),
      config_(config),
      sampler_(replay_tree(replay_), config.zipf_skew, rng),
      start_rng_(rng),
      rng_(rng) {
  TC_CHECK(config_.alpha >= 1, "alpha must be positive");
  reset();
}

template <typename PrefixT>
std::size_t BasicRibChurnSource<PrefixT>::fill(std::span<Request> buffer) {
  std::size_t n = 0;
  while (n < buffer.size()) {
    if (lookups_pending_ > 0) {
      --lookups_pending_;
      buffer[n++] = positive(sampler_.sample_packet(rng_).match);
      continue;
    }
    if (negatives_pending_ > 0) {
      --negatives_pending_;
      buffer[n++] = negative(chunk_node_);
      continue;
    }
    if (event_ < replay_->churn_nodes.size()) {
      chunk_node_ = replay_->churn_nodes[event_++];
      lookups_pending_ = config_.lookups_per_event;
      negatives_pending_ = config_.alpha;
      continue;
    }
    if (tail_pending_ > 0) {
      --tail_pending_;
      buffer[n++] = positive(sampler_.sample_packet(rng_).match);
      continue;
    }
    break;
  }
  return n;
}

template <typename PrefixT>
void BasicRibChurnSource<PrefixT>::reset() {
  rng_ = start_rng_;
  event_ = 0;
  lookups_pending_ = 0;
  negatives_pending_ = 0;
  tail_pending_ = config_.tail_lookups;
  chunk_node_ = 0;
}

template class BasicRibChurnSource<fib::Prefix>;
template class BasicRibChurnSource<fib::Prefix6>;

}  // namespace treecache::rib
