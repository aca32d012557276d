#include "fib/traffic.hpp"

#include <numeric>

namespace treecache::fib {

template <typename PrefixT>
BasicPacketSampler<PrefixT>::BasicPacketSampler(
    const BasicRuleTree<PrefixT>& rules, double zipf_skew, Rng& rng)
    : rules_(&rules),
      ranked_([&] {
        // Rank the non-root rules in random order.
        std::vector<NodeId> ids(rules.tree.size() - 1);
        std::iota(ids.begin(), ids.end(), NodeId{1});
        rng.shuffle(ids);
        return ids;
      }()),
      sampler_(std::max<std::size_t>(ranked_.size(), 1), zipf_skew) {
  TC_CHECK(!ranked_.empty(), "rule tree has only the default rule");
}

template <typename PrefixT>
NodeId BasicPacketSampler<PrefixT>::sample_rule(Rng& rng) const {
  return ranked_[sampler_.sample(rng)];
}

template <typename PrefixT>
auto BasicPacketSampler<PrefixT>::sample_packet(Rng& rng) const -> Packet {
  const NodeId rule = sample_rule(rng);
  const PrefixT p = rules_->prefix[rule];
  const Bits span_mask = ~prefix_mask<Bits>(p.length);
  const auto draw = [&] {
    const Bits addr = p.bits | (AddressFamily<Bits>::random(rng) & span_mask);
    return Packet{addr, rules_->lpm(addr, rule)};
  };
  // A handful of rejection rounds keeps most packets on the sampled rule.
  Packet packet = draw();
  for (int tries = 0; tries < 8 && packet.match != rule; ++tries) {
    packet = draw();
  }
  return packet;
}

template class BasicPacketSampler<Prefix>;
template class BasicPacketSampler<Prefix6>;

FibTraceSource::FibTraceSource(const RuleTree& rules,
                               const FibWorkloadConfig& config, Rng rng)
    : config_(config),
      sampler_(rules, config.zipf_skew, rng),
      start_rng_(rng),
      rng_(rng) {
  TC_CHECK(config_.alpha >= 1, "alpha must be positive");
}

std::size_t FibTraceSource::fill(std::span<Request> buffer) {
  std::size_t n = 0;
  while (n < buffer.size()) {
    if (pending_ > 0) {
      --pending_;
      buffer[n++] = negative(pending_node_);
      continue;
    }
    if (events_done_ == config_.events) break;
    ++events_done_;
    if (rng_.chance(config_.update_probability)) {
      pending_node_ = sampler_.sample_rule(rng_);
      pending_ = config_.alpha;
    } else {
      buffer[n++] = positive(sampler_.sample_packet(rng_).match);
    }
  }
  return n;
}

std::unique_ptr<RequestSource> FibTraceSource::fork() const {
  // Copy (sampler permutation included), then rewind to the captured
  // post-setup RNG state: the fork replays the identical stream.
  auto copy = std::make_unique<FibTraceSource>(*this);
  copy->reset();
  return copy;
}

void FibTraceSource::reset() {
  rng_ = start_rng_;
  events_done_ = 0;
  pending_ = 0;
}

ChunkedTrace make_fib_workload(const RuleTree& rules,
                               const FibWorkloadConfig& config, Rng& rng) {
  TC_CHECK(config.alpha >= 1, "alpha must be positive");
  const PacketSampler packets(rules, config.zipf_skew, rng);
  ChunkedTrace out;
  out.trace.reserve(config.events);
  for (std::size_t event = 0; event < config.events; ++event) {
    if (rng.chance(config.update_probability)) {
      const NodeId rule = packets.sample_rule(rng);
      const std::size_t begin = out.trace.size();
      append_repeated(out.trace, negative(rule), config.alpha);
      out.chunks.emplace_back(begin, out.trace.size());
    } else {
      out.trace.push_back(positive(packets.sample_packet(rng).match));
    }
  }
  return out;
}

}  // namespace treecache::fib
