// Packet and rule-update stream generation for the FIB experiments.
//
// Traffic is Zipf-distributed over rules (Sarrar et al., cited in §2);
// updates follow the Appendix-B model: one BGP update to a rule becomes a
// chunk of α negative requests to its tree node. Every packet stream —
// this file's, the router's and the fib-real churn replay's — draws its
// addresses and their full-table matches from one BasicPacketSampler.
#pragma once

#include <cstdint>

#include "core/request_source.hpp"
#include "fib/rule_tree.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace treecache::fib {

enum class RouterEventKind : std::uint8_t { kPacket, kUpdate };

/// One event of a FIB stream: a packet, with `node` the GLOBAL id of its
/// full-table LPM match, or an update to rule `node`.
struct RouterEvent {
  NodeId node = 0;
  RouterEventKind kind = RouterEventKind::kPacket;

  friend bool operator==(const RouterEvent&, const RouterEvent&) = default;
};

/// Zipf popularity over rules, with addresses drawn inside the chosen
/// rule's prefix. Generic over the key width: PacketSampler draws IPv4
/// packets; the fib-real churn replay draws both families.
///
/// Layout: one record per popularity rank holds all a draw reads of its
/// rule (prefix, node id and child index range), so a draw goes from the
/// Zipf tables to one record and, only when the rule has children, to
/// their index; the rule tree's per-node arrays stay out of the way, and
/// the popular ranks share cache lines. On IPv4 that is 32 bytes per rank
/// (a 20-byte record beside the Zipf sampler's 12), so the producers of
/// one router stream share one immutable sampler (RouterSource::split).
/// The records are shuffled from the rules' (length, bits) order, not
/// from node ids, so a seed gives every rank the same prefix however the
/// rule tree labels its nodes; set-up writes each record once, straight
/// into its slot, and allocates nothing else per rule.
template <typename PrefixT>
class BasicPacketSampler {
 public:
  using Bits = typename PrefixT::Bits;

  /// A drawn packet: its address and the address's full-table match.
  struct Packet {
    Bits addr;
    NodeId match;
  };

  /// Popularity ranks are a random permutation of the non-root rules.
  /// `rules` must outlive the sampler.
  BasicPacketSampler(const BasicRuleTree<PrefixT>& rules, double zipf_skew,
                     Rng& rng);

  /// Draws a Zipf-popular rule.
  [[nodiscard]] NodeId sample_rule(Rng& rng) const;

  /// Draws a rule, then addresses inside it until one lies in none of the
  /// rule's children, at most kMaxTries (nine): most packets stay on the
  /// drawn rule, and one that a child still covers simply belongs to the
  /// more specific rule, realistic either way. The match is then the rule
  /// itself or, after the last try, the descent below that child.
  [[nodiscard]] Packet sample_packet(Rng& rng) const;

  /// One event of every FIB stream: with probability `update_probability`
  /// an update to sample_rule(rng), otherwise a packet to the match of
  /// sample_packet(rng). Each caller decides when its stream ends.
  [[nodiscard]] RouterEvent sample_event(Rng& rng,
                                         double update_probability) const {
    if (rng.chance(update_probability)) {
      return {sample_rule(rng), RouterEventKind::kUpdate};
    }
    return {sample_packet(rng).match, RouterEventKind::kPacket};
  }

  /// The address of sample_packet(rng): the same draw, descents included.
  [[nodiscard]] Bits sample_address(Rng& rng) const {
    return sample_packet(rng).addr;
  }

  [[nodiscard]] const BasicRuleTree<PrefixT>& rules() const {
    return *rules_;
  }

 private:
  static constexpr int kMaxTries = 9;

  /// One popularity rank's rule: its children are
  /// rules_->child_list[child_begin, child_end).
  struct Ranked {
    PrefixT prefix;
    NodeId node;
    std::uint32_t child_begin;
    std::uint32_t child_end;
  };

  const BasicRuleTree<PrefixT>* rules_;
  std::vector<Ranked> ranked_;  // by popularity rank
  ZipfSampler sampler_;
};

using PacketSampler = BasicPacketSampler<Prefix>;

struct FibWorkloadConfig {
  std::size_t events = 100000;        // packets + update chunks
  double zipf_skew = 1.0;
  double update_probability = 0.01;   // chance an event is a rule update
  std::uint64_t alpha = 16;           // chunk length per update
};

/// Streaming FIB workload: packets become positive requests to their
/// full-table LPM node, and updates α-chunks of negative requests to a
/// Zipf-popular rule, emitted lazily over `config.events` events. Every
/// negative request belongs to one update's chunk, so the chunks can be
/// read off the stream (fib::run_canonicalized does). `rules` must outlive
/// the source.
class FibTraceSource final : public RequestSource {
 public:
  FibTraceSource(const RuleTree& rules, const FibWorkloadConfig& config,
                 Rng rng);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override;

 private:
  FibWorkloadConfig config_;
  PacketSampler sampler_;
  Rng start_rng_;  // state AFTER the sampler's permutation draw
  Rng rng_;
  std::size_t events_done_ = 0;
  NodeId pending_node_ = 0;
  std::uint64_t pending_ = 0;  // negatives left in the current chunk
};

}  // namespace treecache::fib
