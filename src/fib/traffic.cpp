#include "fib/traffic.hpp"

#include <algorithm>

namespace treecache::fib {

template <typename PrefixT>
BasicPacketSampler<PrefixT>::BasicPacketSampler(
    const BasicRuleTree<PrefixT>& rules, double zipf_skew, Rng& rng)
    : rules_(&rules),
      ranked_([&] {
        // Rank the non-root rules in random order.
        std::vector<Ranked> ranked;
        ranked.reserve(rules.tree.size() - 1);
        for (NodeId v = 1; v < rules.tree.size(); ++v) {
          ranked.push_back({rules.prefix[v], v, rules.child_offset[v],
                            rules.child_offset[v + 1]});
        }
        rng.shuffle(ranked);
        return ranked;
      }()),
      sampler_(std::max<std::size_t>(ranked_.size(), 1), zipf_skew) {
  TC_CHECK(!ranked_.empty(), "rule tree has only the default rule");
}

template <typename PrefixT>
NodeId BasicPacketSampler<PrefixT>::sample_rule(Rng& rng) const {
  return ranked_[sampler_.sample(rng)].node;
}

template <typename PrefixT>
auto BasicPacketSampler<PrefixT>::sample_packet(Rng& rng) const -> Packet {
  const Ranked& rule = ranked_[sampler_.sample(rng)];
  const Bits span_mask = ~prefix_mask<Bits>(rule.prefix.length);
  Bits addr{};
  NodeId child = kNoNode;
  for (int tries = 0; tries < kMaxTries; ++tries) {
    addr = rule.prefix.bits | (AddressFamily<Bits>::random(rng) & span_mask);
    child = rules_->child_containing(rule.child_begin, rule.child_end, addr);
    if (child == kNoNode) return {addr, rule.node};
  }
  return {addr, rules_->lpm(addr, child)};
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
    const RouterEvent event =
        sampler_.sample_event(rng_, config_.update_probability);
    if (event.kind == RouterEventKind::kUpdate) {
      pending_node_ = event.node;
      pending_ = config_.alpha;
    } else {
      buffer[n++] = positive(event.node);
    }
  }
  return n;
}

void FibTraceSource::reset() {
  rng_ = start_rng_;
  events_done_ = 0;
  pending_ = 0;
}

}  // namespace treecache::fib
