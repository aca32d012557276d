// FIB substrate: IPv4 parsing, the rule tree's structure and its LPM and
// exact-match descents (against linear scans, for both families), pinned
// rule-tree builds, synthetic RIB properties, router simulation
// correctness, and the Appendix B canonicalization bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/lru_closure.hpp"
#include "core/tree_cache.hpp"
#include "fib/canonicalizer.hpp"
#include "fib/rib_gen.hpp"
#include "fib/router_sim.hpp"
#include "fib/rule_tree.hpp"
#include "fib/traffic.hpp"
#include "rib/churn_source.hpp"
#include "util/rng.hpp"

namespace treecache::fib {
namespace {

TEST(Ipv4, AddressRoundTrip) {
  EXPECT_EQ(address_to_string(0xC0A80101), "192.168.1.1");
  EXPECT_EQ(parse_address("192.168.1.1"), 0xC0A80101u);
  EXPECT_EQ(parse_address("0.0.0.0"), 0u);
  EXPECT_EQ(parse_address("255.255.255.255"), 0xFFFFFFFFu);
}

TEST(Ipv4, PrefixParseAndNormalize) {
  // parse is strict (a feed line with host bits set is a data error, not
  // something to silently round); make() is the normalizing constructor.
  const Prefix p = Prefix::make(parse_address("10.1.2.3"), 8);
  EXPECT_EQ(p.to_string(), "10.0.0.0/8");  // low bits dropped
  EXPECT_EQ(p.length, 8);
  EXPECT_TRUE(p.contains(parse_address("10.255.0.1")));
  EXPECT_FALSE(p.contains(parse_address("11.0.0.1")));
  EXPECT_EQ(Prefix::parse("10.0.0.0/8"), p);
  EXPECT_EQ(Prefix::parse("0.0.0.0/0"), Prefix{});
}

TEST(Ipv4, PrefixContainsPrefix) {
  const Prefix wide = Prefix::parse("10.0.0.0/8");
  const Prefix narrow = Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
  EXPECT_TRUE(wide.contains(wide));
  EXPECT_TRUE(Prefix{}.contains(narrow));  // default route covers all
}

TEST(Ipv4, RejectsMalformedInput) {
  EXPECT_THROW(Prefix::parse("10.0.0.0"), CheckFailure);
  EXPECT_THROW(Prefix::parse("10.0.0.0/33"), CheckFailure);
  EXPECT_THROW((void)parse_address("300.0.0.1"), CheckFailure);
  EXPECT_THROW((void)parse_address("10.0.0"), CheckFailure);
}

/// What a parse error says matters as much as that it throws: feed files
/// are hand-edited and machine-generated, and the message must point at
/// the offending byte. These are regression tests for the strict scanner.
TEST(Ipv4, ParseErrorsNameTheProblemAndPosition) {
  const auto message_of = [](auto&& parse) -> std::string {
    try {
      (void)parse();
    } catch (const CheckFailure& e) {
      return e.what();
    }
    return {};
  };

  // Out-of-range octet, with its 1-based column.
  const std::string range =
      message_of([] { return parse_address("10.256.0.1"); });
  EXPECT_NE(range.find("octet out of range"), std::string::npos) << range;
  EXPECT_NE(range.find("column 4"), std::string::npos) << range;
  // Too many digits is distinct from out of range ("0000" is not 0..255).
  EXPECT_NE(message_of([] { return parse_address("1.2.3.0000"); })
                .find("more than three digits"),
            std::string::npos);
  // Trailing garbage after a well-formed address / prefix.
  EXPECT_THROW((void)parse_address("10.0.0.1x"), CheckFailure);
  EXPECT_THROW((void)parse_address("10.0.0.1 "), CheckFailure);
  EXPECT_THROW(Prefix::parse("10.0.0.0/8x"), CheckFailure);
  EXPECT_THROW(Prefix::parse("10.0.0.0/+8"), CheckFailure);
  EXPECT_THROW(Prefix::parse("10.0.0.0/"), CheckFailure);
  // Empty octets and missing dots.
  EXPECT_THROW((void)parse_address("10..0.1"), CheckFailure);
  EXPECT_THROW((void)parse_address(""), CheckFailure);
  // Host bits set beyond the mask: rejected, and the message names the
  // prefix, the length, and where the address starts.
  const std::string host =
      message_of([] { return Prefix::parse("10.1.2.3/8"); });
  EXPECT_NE(host.find("host bits set beyond /8"), std::string::npos) << host;
  EXPECT_NE(host.find("10.1.2.3/8"), std::string::npos) << host;
}

/// A deaggregated synthetic RIB of either family.
template <typename PrefixT>
std::vector<PrefixT> deep_rib(std::size_t rules, Rng& rng) {
  if constexpr (std::is_same_v<PrefixT, Prefix6>) {
    return generate_rib6(
        {.rules = rules, .deaggregation = 0.6, .max_length = 64}, rng);
  } else {
    return generate_rib({.rules = rules, .deaggregation = 0.6}, rng);
  }
}

/// An address inside `p`, with uniform host bits.
template <typename PrefixT>
typename PrefixT::Bits address_in(const PrefixT& p, Rng& rng) {
  using Bits = typename PrefixT::Bits;
  return p.bits | (AddressFamily<Bits>::random(rng) &
                   ~prefix_mask<Bits>(p.length));
}

TEST(RuleTree, LpmAndExactBasics) {
  const RuleTree rt = build_rule_tree<Prefix>(
      {Prefix::parse("10.0.0.0/8"), Prefix::parse("10.1.0.0/16"),
       Prefix::parse("192.168.0.0/16")});
  // Ids in (length, bits) order: the /8, then the two /16s.
  EXPECT_EQ(rt.lpm(parse_address("10.1.2.3")), 2u);
  EXPECT_EQ(rt.lpm(parse_address("10.2.2.3")), 1u);
  EXPECT_EQ(rt.lpm(parse_address("192.168.9.9")), 3u);
  EXPECT_EQ(rt.lpm(parse_address("11.0.0.1")), 0u);  // the default rule
  // Rule-relative: the descent from the /8.
  EXPECT_EQ(rt.lpm(parse_address("10.1.2.3"), 1), 2u);
  EXPECT_EQ(rt.exact(Prefix::parse("10.1.0.0/16")), 2u);
  EXPECT_EQ(rt.exact(Prefix{}), 0u);
  EXPECT_EQ(rt.exact(Prefix::parse("10.0.0.0/16")), std::nullopt);
  EXPECT_EQ(rt.exact(Prefix::parse("10.1.0.0/24")), std::nullopt);
}

// Addresses inside every rule, the root's among them uniform: LPM from
// the root matches a linear scan over the RIB, and LPM from the rule
// matches LPM from the root.
template <typename PrefixT>
void check_lpm(std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<PrefixT> rib = deep_rib<PrefixT>(400, rng);
  const BasicRuleTree<PrefixT> rt = build_rule_tree(rib);
  for (NodeId v = 0; v < rt.tree.size(); ++v) {
    for (int draw = 0; draw < (v == 0 ? 1000 : 4); ++draw) {
      const auto addr = address_in(rt.prefix[v], rng);
      PrefixT best{};  // the default rule matches everything
      for (const PrefixT& p : rib) {
        if (p.contains(addr) && p.length > best.length) best = p;
      }
      ASSERT_EQ(rt.prefix[rt.lpm(addr)], best) << best.to_string();
      ASSERT_EQ(rt.lpm(addr, v), rt.lpm(addr)) << "rule " << v;
    }
  }
}

TEST(RuleTree, LpmMatchesLinearScan) {
  check_lpm<Prefix>(42);
  check_lpm<Prefix6>(43);
}

template <typename PrefixT>
void check_exact(std::uint64_t seed) {
  Rng rng(seed);
  const BasicRuleTree<PrefixT> rt =
      build_rule_tree(deep_rib<PrefixT>(1500, rng));
  std::map<PrefixT, NodeId> present;
  for (NodeId v = 0; v < rt.tree.size(); ++v) {
    ASSERT_EQ(rt.exact(rt.prefix[v]), v) << rt.prefix[v].to_string();
    present.emplace(rt.prefix[v], v);
  }
  // Prefixes near the rules: every length of a rule's address, most of
  // them absent from the table.
  std::size_t absent = 0;
  for (int round = 0; round < 3000; ++round) {
    const auto addr = address_in(rt.prefix[rng.below(rt.tree.size())], rng);
    const auto length =
        static_cast<std::uint8_t>(rng.below(PrefixT::kWidth + 1));
    const PrefixT p = PrefixT::make(addr, length);
    const auto it = present.find(p);
    if (it == present.end()) {
      ++absent;
      EXPECT_EQ(rt.exact(p), std::nullopt) << p.to_string();
    } else {
      EXPECT_EQ(rt.exact(p), it->second) << p.to_string();
    }
  }
  EXPECT_GT(absent, 1000u);
}

TEST(RuleTree, ExactFindsEveryRuleAndNothingElse) {
  check_exact<Prefix>(8);
  check_exact<Prefix6>(9);
}

template <typename PrefixT>
void check_parents(std::uint64_t seed) {
  Rng rng(seed);
  const BasicRuleTree<PrefixT> rt =
      build_rule_tree(deep_rib<PrefixT>(300, rng));
  ASSERT_EQ(rt.tree.size(), rt.prefix.size());
  for (NodeId v = 1; v < rt.tree.size(); ++v) {
    const NodeId p = rt.tree.parent(v);
    EXPECT_TRUE(rt.prefix[p].contains(rt.prefix[v]));
    EXPECT_LT(rt.prefix[p].length, rt.prefix[v].length);
    // No other rule sits strictly between v and its parent.
    for (NodeId u = 1; u < rt.tree.size(); ++u) {
      if (u == v || u == p) continue;
      const bool between = rt.prefix[u].contains(rt.prefix[v]) &&
                           rt.prefix[p].contains(rt.prefix[u]) &&
                           rt.prefix[u].length > rt.prefix[p].length &&
                           rt.prefix[u].length < rt.prefix[v].length;
      EXPECT_FALSE(between) << "rule " << u << " between " << v
                            << " and its parent";
    }
  }
}

TEST(RuleTree, ParentIsLongestProperAncestor) {
  check_parents<Prefix>(7);
  check_parents<Prefix6>(11);
}

/// FNV-1a-64 over the low `bytes` bytes of each mixed value, little-endian;
/// an address mixes as its bits (IPv6: high limb, then low).
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void mix(std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash = (hash ^ static_cast<std::uint8_t>(value >> (8 * i))) *
             0x100000001b3ULL;
    }
  }
  void mix(const Address6& bits) {
    mix(bits.hi, 8);
    mix(bits.lo, 8);
  }
  void mix(Address bits) { mix(bits, 4); }
};

/// FNV-1a-64 over every node's parent id (4 bytes), its prefix bits and
/// its length.
template <typename PrefixT>
std::uint64_t rule_tree_digest(const BasicRuleTree<PrefixT>& rt) {
  Fnv1a digest;
  for (NodeId v = 0; v < rt.tree.size(); ++v) {
    digest.mix(rt.tree.parent(v), 4);
    digest.mix(rt.prefix[v].bits);
    digest.mix(rt.prefix[v].length, 1);
  }
  return digest.hash;
}

// Node ids, parents and prefixes of every rule tree, pinned: the streams,
// shard plans and costs built on a rule tree all key on its node ids.
TEST(RuleTree, BuildsArePinned) {
  const std::uint64_t v4_golden[] = {
      0x9c79d65c3681ffa8ULL, 0x17704a51e38cbc6dULL, 0xe6f9433a34595837ULL};
  const std::uint64_t v6_golden[] = {
      0x73e824f45082038dULL, 0x4a236fc4a18f20c0ULL, 0x90fabd3b5ff38655ULL};
  const std::uint64_t seeds[] = {3, 101, 20260730};
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    Rng rng(seeds[i]);
    const RuleTree v4 = build_rule_tree(
        generate_rib({.rules = 3000, .deaggregation = 0.6}, rng));
    EXPECT_EQ(rule_tree_digest(v4), v4_golden[i])
        << std::hex << "0x" << rule_tree_digest(v4);
    const RuleTree6 v6 = build_rule_tree(generate_rib6(
        {.rules = 3000, .deaggregation = 0.6, .max_length = 64}, rng));
    EXPECT_EQ(rule_tree_digest(v6), v6_golden[i])
        << std::hex << "0x" << rule_tree_digest(v6);
  }
  const std::string data = TREECACHE_TEST_DATA_DIR;
  const rib::IngestResult feeds =
      rib::ingest_feed({data + "/rib_v4.feed", data + "/rib_v6.feed"});
  const std::uint64_t v4_feed =
      rule_tree_digest(rib::make_churn_replay(feeds.v4).fib);
  const std::uint64_t v6_feed =
      rule_tree_digest(rib::make_churn_replay(feeds.v6).fib);
  EXPECT_EQ(v4_feed, 0xadd1ca81c7d6e273ULL) << std::hex << "0x" << v4_feed;
  EXPECT_EQ(v6_feed, 0xe3d1b4c6c9ad303dULL) << std::hex << "0x" << v6_feed;
}

TEST(RuleTree, DropsDuplicatesAndDefaultRoute) {
  std::vector<Prefix> prefixes{
      Prefix::parse("10.0.0.0/8"), Prefix::parse("10.0.0.0/8"),
      Prefix::make(0, 0),  // explicit default route merges into the root
      Prefix::parse("10.1.0.0/16")};
  const RuleTree rt = build_rule_tree(prefixes);
  EXPECT_EQ(rt.tree.size(), 3u);  // root + two rules
  EXPECT_EQ(rt.lpm(parse_address("10.1.9.9")),
            2u);  // the /16, inserted after the /8
  EXPECT_EQ(rt.lpm(parse_address("77.1.9.9")), 0u);  // default rule

  // No rules at all: the tree is just the default rule.
  const RuleTree empty = build_rule_tree(std::vector<Prefix>{});
  EXPECT_EQ(empty.tree.size(), 1u);
  EXPECT_EQ(empty.lpm(0x01020304u), 0u);
}

/// FNV-1a-64 over 100,000 draws of a Zipf(1.0) sampler on a deaggregated
/// 3,000-rule table: sample_rule's rule and sample_packet's address and
/// match, alternating, then the RNG's next output.
template <typename PrefixT>
std::uint64_t sampler_digest(std::uint64_t seed) {
  Rng rng(seed);
  const BasicRuleTree<PrefixT> rt =
      build_rule_tree(deep_rib<PrefixT>(3000, rng));
  const BasicPacketSampler<PrefixT> sampler(rt, 1.0, rng);
  Fnv1a digest;
  for (int draw = 0; draw < 50000; ++draw) {
    digest.mix(sampler.sample_rule(rng), 4);
    const auto [addr, match] = sampler.sample_packet(rng);
    digest.mix(addr);
    digest.mix(match, 4);
  }
  digest.mix(rng(), 8);
  return digest.hash;
}

// Every draw of the packet sampler, addresses included: the router loop,
// the fib trace and the churn replay all draw their packets from it.
TEST(PacketSampler, DrawsArePinned) {
  const std::uint64_t v4 = sampler_digest<Prefix>(61);
  EXPECT_EQ(v4, 0x3bbd63517047ec65ULL) << std::hex << "0x" << v4;
  const std::uint64_t v6 = sampler_digest<Prefix6>(62);
  EXPECT_EQ(v6, 0xb33889ca064ac21bULL) << std::hex << "0x" << v6;
}

/// The first four outputs of a copy of `rng`: equal iff the states are.
std::array<std::uint64_t, 4> next_outputs(Rng rng) {
  return {rng(), rng(), rng(), rng()};
}

/// How often a replayed draw took the two rare branches: all nine
/// addresses inside a child, and a match below that first child.
struct RetryCounts {
  std::size_t exhausted = 0;
  std::size_t below_child = 0;
};

/// Replays `draws` sample_packet draws on a cloned Rng, where sample_rule
/// names the drawn rule: a draw takes one Zipf uniform, then addresses
/// inside the rule until one lies in none of its children (at most nine),
/// and returns that address with its match from the root.
template <typename PrefixT>
void check_retry_contract(const BasicRuleTree<PrefixT>& rt,
                          std::uint64_t seed, int draws,
                          RetryCounts& counts) {
  Rng rng(seed);
  const BasicPacketSampler<PrefixT> sampler(rt, 1.0, rng);
  for (int draw = 0; draw < draws; ++draw) {
    Rng replay = rng;
    const NodeId rule = sampler.sample_rule(replay);
    auto addr = address_in(rt.prefix[rule], replay);
    NodeId child = rt.child_containing(rule, addr);
    for (int tries = 1; tries < 9 && child != kNoNode; ++tries) {
      addr = address_in(rt.prefix[rule], replay);
      child = rt.child_containing(rule, addr);
    }
    const auto packet = sampler.sample_packet(rng);
    EXPECT_EQ(packet.addr, addr) << "draw " << draw;
    EXPECT_EQ(packet.match, rt.lpm(addr)) << "draw " << draw;
    EXPECT_EQ(packet.match, child == kNoNode ? rule : rt.lpm(addr, child))
        << "draw " << draw;
    ASSERT_EQ(next_outputs(rng), next_outputs(replay)) << "draw " << draw;
    if (child != kNoNode) ++counts.exhausted;
    if (child != kNoNode && packet.match != child) ++counts.below_child;
  }
}

TEST(PacketSampler, RetriesOnlyWhileAChildContainsTheAddress) {
  Rng rng(71);
  const RuleTree deaggregated = build_rule_tree(deep_rib<Prefix>(3000, rng));
  RetryCounts counts;
  ASSERT_NO_FATAL_FAILURE(
      check_retry_contract(deaggregated, 72, 20000, counts));

  // The /8's two /9 children cover it exactly, so every draw of the /8
  // exhausts its nine tries; the /10 under the first /9 then takes the
  // descent below that child.
  const RuleTree covered = build_rule_tree<Prefix>(
      {Prefix::parse("10.0.0.0/8"), Prefix::parse("10.0.0.0/9"),
       Prefix::parse("10.128.0.0/9"), Prefix::parse("10.0.0.0/10")});
  counts = {};
  ASSERT_NO_FATAL_FAILURE(check_retry_contract(covered, 73, 4000, counts));
  EXPECT_GT(counts.exhausted, 0u);
  EXPECT_GT(counts.below_child, 0u);
}

TEST(RibGen, ProducesRequestedDistinctRules) {
  Rng rng(11);
  const auto rib = generate_rib({.rules = 1000}, rng);
  EXPECT_EQ(rib.size(), 1000u);
  auto sorted = rib;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const Prefix& p : rib) {
    EXPECT_GE(p.length, 8);
    EXPECT_LE(p.length, 24);
    EXPECT_EQ(p.bits, Prefix::make(p.bits, p.length).bits);  // normalized
  }
}

TEST(RibGen, DeaggregationCreatesDepth) {
  Rng rng(13);
  const auto flat_rib = generate_rib({.rules = 800, .deaggregation = 0.0}, rng);
  const auto deep_rib = generate_rib({.rules = 800, .deaggregation = 0.8}, rng);
  const RuleTree flat = build_rule_tree(flat_rib);
  const RuleTree deep = build_rule_tree(deep_rib);
  EXPECT_GT(deep.tree.height(), flat.tree.height());
}

TEST(RouterSim, NoForwardingErrorsAndConsistentCounts) {
  Rng rng(17);
  const auto rib = generate_rib({.rules = 500, .deaggregation = 0.5}, rng);
  const RuleTree rt = build_rule_tree(rib);
  TreeCache tc(rt.tree, {.alpha = 8, .capacity = 64});
  const auto result = run_router_sim(
      rt, tc,
      {.packets = 20000, .zipf_skew = 1.1, .update_probability = 0.02,
       .alpha = 8, .seed = 5});
  EXPECT_EQ(result.forwarding_errors, 0u);
  EXPECT_EQ(result.hits + result.misses, result.packets);
  EXPECT_GT(result.hits, 0u) << "cache never got hot";
  EXPECT_GT(result.misses, 0u);
  EXPECT_EQ(result.algorithm_cost.total(), tc.cost().total());
}

// The reference loop's statistics on a deaggregated RIB, pinned for TC
// and LRU-closure: every packet's sampled address, full-table match and
// cached-LPM verdict feeds these counters.
TEST(RouterSim, StatisticsArePinned) {
  Rng rng(43);
  const RuleTree rt = build_rule_tree(
      generate_rib({.rules = 4096, .deaggregation = 0.6}, rng));
  const RouterSimConfig config{.packets = 60000,
                               .zipf_skew = 1.0,
                               .update_probability = 0.02,
                               .alpha = 8,
                               .seed = 77};
  // packets, hits, misses, updates, cached_updates, service, reorg.
  using Counters = std::array<std::uint64_t, 7>;
  const auto counters = [](const RouterSimResult& r) {
    return Counters{r.packets, r.hits, r.misses, r.updates, r.cached_updates,
                    r.algorithm_cost.service, r.algorithm_cost.reorg};
  };
  TreeCache tc(rt.tree, {.alpha = 8, .capacity = 256});
  const RouterSimResult tc_result = run_router_sim(rt, tc, config);
  EXPECT_EQ(counters(tc_result),
            (Counters{60000, 28247, 31753, 1176, 549, 36145, 22224}));
  LruClosure lru(rt.tree, {.alpha = 8, .capacity = 256});
  const RouterSimResult lru_result = run_router_sim(rt, lru, config);
  EXPECT_EQ(counters(lru_result),
            (Counters{60000, 28462, 31538, 1176, 537, 35834, 803168}));
  EXPECT_EQ(tc_result.forwarding_errors, 0u);
  EXPECT_EQ(lru_result.forwarding_errors, 0u);
}

TEST(RouterSim, LruClosureIsAlsoForwardingCorrect) {
  Rng rng(19);
  const auto rib = generate_rib({.rules = 300}, rng);
  const RuleTree rt = build_rule_tree(rib);
  LruClosure lru(rt.tree, {.alpha = 4, .capacity = 48});
  const auto result = run_router_sim(
      rt, lru,
      {.packets = 8000, .zipf_skew = 1.0, .update_probability = 0.01,
       .alpha = 4, .seed = 23});
  EXPECT_EQ(result.forwarding_errors, 0u);
  EXPECT_GT(result.hits, 0u);
}

// A stub that pins a fixed (legal) subforest and records every request it
// is stepped with, so the test can observe what the router reports to the
// online algorithm.
class PinnedCache final : public OnlineAlgorithm {
 public:
  PinnedCache(const Tree& tree, const std::vector<NodeId>& pins)
      : cache_(tree) {
    for (const NodeId v : pins) cache_.insert(v);
    TC_CHECK(cache_.is_valid(), "pins must form a subforest");
  }

  [[nodiscard]] std::string_view name() const override { return "Pinned"; }
  StepOutcome step(Request request) override {
    seen.push_back(request);
    StepOutcome out;
    out.paid = (request.sign == Sign::kPositive) !=
               cache_.contains(request.node);
    if (out.paid) ++cost_.service;
    return out;
  }
  void reset() override { seen.clear(); }
  [[nodiscard]] const Subforest& cache() const override { return cache_; }
  [[nodiscard]] const Cost& cost() const override { return cost_; }

  std::vector<Request> seen;

 private:
  Subforest cache_;
  Cost cost_;
};

// Regression: a mis-forwarded packet (cached LPM disagrees with the full
// table) must be detoured via the controller — counted in
// forwarding_errors AND reported to the algorithm as a positive request
// for the full-table match, not silently dropped from the instance.
//
// Subforest-invariant algorithms over a consistent rule tree can never
// mis-forward, so the test fabricates an *inconsistent* RuleTree: the tree
// is a star (both rules are leaves, so pinning just the /8 is a legal
// subforest), while the child index still nests the /16 under the /8 the
// way real prefixes do.
TEST(RouterSim, ForwardingErrorsDetourViaController) {
  const RuleTree rt{
      .tree = Tree({kNoNode, 0, 0}),  // star: the /16 is NOT a tree child
      .prefix = {Prefix{}, Prefix::parse("10.0.0.0/8"),
                 Prefix::parse("10.0.0.0/16")},
      .child_offset = {0, 1, 2, 2},  // the root → the /8 → the /16
      .child_list = {1, 2}};

  PinnedCache pinned(rt.tree, {1});  // the /8 is cached, the /16 is not
  const auto result = run_router_sim(
      rt, pinned, {.packets = 2000, .zipf_skew = 1.0, .alpha = 4, .seed = 9});

  // Packets inside 10.0.0.0/16 match the cached /8 but the full table
  // picks the /16: mis-forwarded, detected, detoured.
  EXPECT_GT(result.forwarding_errors, 0u);
  EXPECT_GT(result.hits, 0u);  // packets on the /8 outside the /16 still hit
  EXPECT_EQ(result.hits + result.misses + result.forwarding_errors,
            result.packets);
  // The algorithm saw exactly one positive request per detoured packet
  // (misses are zero here: every sampled address matches the cached /8).
  EXPECT_EQ(result.misses, 0u);
  ASSERT_EQ(pinned.seen.size(), result.forwarding_errors);
  for (const Request& r : pinned.seen) {
    EXPECT_EQ(r, positive(2));
  }
}

TEST(RouterSim, ZeroCapacityEquivalentMissesEverything) {
  Rng rng(29);
  const auto rib = generate_rib({.rules = 100}, rng);
  const RuleTree rt = build_rule_tree(rib);
  // Capacity 1 with a huge alpha: nothing ever gets cached in time.
  TreeCache tc(rt.tree, {.alpha = 1000000, .capacity = 1});
  const auto result = run_router_sim(
      rt, tc, {.packets = 2000, .zipf_skew = 1.0, .alpha = 4, .seed = 3});
  EXPECT_EQ(result.hits, 0u);
  EXPECT_EQ(result.misses, result.packets);
}

TEST(Canonicalizer, FactorTwoBoundOnUpdateHeavyWorkloads) {
  Rng rng(31);
  const auto rib = generate_rib({.rules = 200, .deaggregation = 0.5}, rng);
  const RuleTree rt = build_rule_tree(rib);
  for (const double update_prob : {0.05, 0.2, 0.5}) {
    FibTraceSource source(rt,
                          {.events = 20000, .zipf_skew = 1.0,
                           .update_probability = update_prob, .alpha = 8},
                          Rng(rng()));
    const Trace workload = materialize(source);
    TreeCache tc(rt.tree, {.alpha = 8, .capacity = 32});
    const auto report = run_canonicalized(rt.tree, workload, 8, tc);
    EXPECT_EQ(report.raw_cost.total(), tc.cost().total());
    EXPECT_LE(report.canonical_cost.total(), 2 * report.raw_cost.total())
        << "update_prob " << update_prob;
    EXPECT_LE(report.dirty_chunks, report.chunks);
  }
}

TEST(Canonicalizer, CleanRunsCostTheSame) {
  // Without any chunks, canonical and raw costs agree exactly.
  Rng rng(37);
  const auto rib = generate_rib({.rules = 150}, rng);
  const RuleTree rt = build_rule_tree(rib);
  FibTraceSource source(rt,
                        {.events = 5000, .zipf_skew = 1.0,
                         .update_probability = 0.0, .alpha = 4},
                        rng);
  const Trace workload = materialize(source);
  TreeCache tc(rt.tree, {.alpha = 4, .capacity = 24});
  const auto report = run_canonicalized(rt.tree, workload, 4, tc);
  EXPECT_EQ(report.chunks, 0u);
  EXPECT_EQ(report.canonical_cost.total(), report.raw_cost.total());
}

/// Runs `trace` (α = 3, capacity 3) through TC and through
/// invalidate-on-update LRU, which evicts at a chunk's first negative.
std::array<CanonicalizationReport, 2> canonicalize_both(
    const Tree& tree, const Trace& trace) {
  TreeCache tc(tree, {.alpha = 3, .capacity = 3});
  LruClosure inv(tree,
                 {.alpha = 3, .capacity = 3, .evict_on_negative = true});
  return {run_canonicalized(tree, trace, 3, tc),
          run_canonicalized(tree, trace, 3, inv)};
}

void expect_report(const CanonicalizationReport& r, std::uint64_t chunks,
                   std::uint64_t dirty, Cost raw, Cost canonical) {
  EXPECT_EQ(r.chunks, chunks);
  EXPECT_EQ(r.dirty_chunks, dirty);
  EXPECT_EQ(r.raw_cost, raw);
  EXPECT_EQ(r.canonical_cost, canonical);
}

// The chunks are read off the requests. The pinned reports equal those
// of the earlier canonicalizer, which took the chunk boundaries as a
// separate list, on the same traces.
const Tree& chunk_tree() {
  static const Tree tree(std::vector<NodeId>{kNoNode, 0, 0, 1});
  return tree;
}

TEST(Canonicalizer, BackToBackUpdatesToOneRuleAreTwoChunks) {
  // One 2α run of negatives to rule 3: two updates, two chunks. LRU
  // evicts inside the first and has nothing left to change in the second.
  Trace trace;
  append_repeated(trace, positive(3), 4);
  append_repeated(trace, negative(3), 6);
  append_repeated(trace, positive(3), 2);
  append_repeated(trace, positive(1), 2);
  const auto [tc, inv] = canonicalize_both(chunk_tree(), trace);
  expect_report(tc, 2, 0, {.service = 10, .reorg = 6},
                {.service = 10, .reorg = 6});
  expect_report(inv, 2, 1, {.service = 4, .reorg = 12},
                {.service = 6, .reorg = 12});
}

TEST(Canonicalizer, TraceCutInsideItsLastChunk) {
  // The trace ends 2 negatives into its second chunk: the chunk counts,
  // its mid-chunk eviction is not counted dirty, and the shadow cache
  // keeps paying for the rule until the end.
  Trace trace;
  append_repeated(trace, positive(3), 4);
  append_repeated(trace, negative(3), 3);
  append_repeated(trace, positive(1), 4);
  append_repeated(trace, negative(1), 2);
  const auto [tc, inv] = canonicalize_both(chunk_tree(), trace);
  expect_report(tc, 2, 0, {.service = 10, .reorg = 6},
                {.service = 10, .reorg = 6});
  expect_report(inv, 2, 1, {.service = 4, .reorg = 15},
                {.service = 7, .reorg = 15});
}

TEST(Canonicalizer, ShortRunMidTraceIsRefused) {
  // Fewer than α negatives, cut short by a packet or by an update to
  // another rule, is no update chunk: the run is refused.
  for (const Request cut : {positive(3), negative(1)}) {
    Trace trace;
    append_repeated(trace, positive(3), 4);
    append_repeated(trace, negative(3), 2);
    append_repeated(trace, cut, 3);
    TreeCache tc(chunk_tree(), {.alpha = 3, .capacity = 3});
    std::string message;
    try {
      (void)run_canonicalized(chunk_tree(), trace, 3, tc);
    } catch (const CheckFailure& e) {
      message = e.message();
    }
    EXPECT_EQ(message,
              "round 7 cuts an update chunk short after 2 of alpha=3 "
              "negatives to node 3");
  }
}

}  // namespace
}  // namespace treecache::fib
