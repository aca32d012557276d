// The RIB subsystem, unit-level: U128 arithmetic, IPv6 parsing and RFC
// 5952 formatting, feed-line grammar (round trips and line-numbered
// errors), the flat RibTable's prefix state against a naive std::set
// reference over both key widths, and the synthetic feed generator's
// self-consistency.
#include "rib/rib_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "fib/ipv6.hpp"
#include "fib/rule_tree.hpp"
#include "rib/feed.hpp"
#include "rib/ingest.hpp"
#include "util/rng.hpp"

namespace treecache::rib {
namespace {

using fib::Address;
using fib::Address6;
using fib::Prefix;
using fib::Prefix6;
using fib::U128;

// --- U128 ----------------------------------------------------------------

TEST(U128Arithmetic, ShiftsAcrossTheWordBoundary) {
  const U128 one{1};
  EXPECT_EQ(one << 0, one);
  EXPECT_EQ(one << 1, U128(0, 2));
  EXPECT_EQ(one << 63, U128(0, std::uint64_t{1} << 63));
  EXPECT_EQ(one << 64, U128(1, 0));
  EXPECT_EQ(one << 65, U128(2, 0));
  EXPECT_EQ(one << 127, U128(std::uint64_t{1} << 63, 0));

  const U128 top(std::uint64_t{1} << 63, 0);
  EXPECT_EQ(top >> 0, top);
  EXPECT_EQ(top >> 63, U128(1, 0));
  EXPECT_EQ(top >> 64, U128(0, std::uint64_t{1} << 63));
  EXPECT_EQ(top >> 127, one);

  // ~0 shifted left by the prefix length is exactly prefix_mask.
  EXPECT_EQ(fib::prefix_mask<Address6>(0), U128{});
  EXPECT_EQ(fib::prefix_mask<Address6>(64), U128(~std::uint64_t{0}, 0));
  EXPECT_EQ(fib::prefix_mask<Address6>(128),
            U128(~std::uint64_t{0}, ~std::uint64_t{0}));
  EXPECT_EQ(fib::prefix_mask<Address6>(1), U128(std::uint64_t{1} << 63, 0));
}

TEST(U128Arithmetic, OrdersNumerically) {
  // The defaulted comparison must order (hi, lo) lexicographically, which
  // is numeric order for a big-endian pair.
  EXPECT_LT(U128(0, ~std::uint64_t{0}), U128(1, 0));
  EXPECT_LT(U128(3, 7), U128(3, 8));
  EXPECT_EQ(U128{5}, U128(0, 5));
  // Single-argument construction is numeric, not aggregate (hi stays 0).
  EXPECT_EQ(U128{1} << 64, U128(1, 0));
}

TEST(U128Arithmetic, BitwiseOperators) {
  const U128 a(0xF0F0, 0x1234);
  const U128 b(0x0FF0, 0xFF00);
  EXPECT_EQ(a & b, U128(0x00F0, 0x1200));
  EXPECT_EQ(a | b, U128(0xFFF0, 0xFF34));
  EXPECT_EQ(a ^ b, U128(0xFF00, 0xED34));
  EXPECT_EQ(~U128{}, U128(~std::uint64_t{0}, ~std::uint64_t{0}));
}

// --- IPv6 ----------------------------------------------------------------

TEST(Ipv6, AddressRoundTrip) {
  // RFC 5952 canonical form: longest zero run (>= 2 groups) compressed,
  // leftmost on ties, lowercase hex, no leading zeros.
  for (const std::string text :
       {"::", "::1", "1::", "2001:db8::8a2e:370:7334", "fe80::1",
        "1:0:2::3:0:4", "1:2:3:4:5:6:7:8", "a::b:0:0:c"}) {
    SCOPED_TRACE(text);
    EXPECT_EQ(fib::address6_to_string(fib::parse_address6(text)), text);
  }
  // Non-canonical spellings parse to the same address.
  EXPECT_EQ(fib::parse_address6("0:0:0:0:0:0:0:0"), Address6{});
  EXPECT_EQ(fib::parse_address6("2001:0db8:0000:0000:0000:0000:0000:0001"),
            fib::parse_address6("2001:db8::1"));
  // The leftmost of two equal-length zero runs is compressed.
  EXPECT_EQ(fib::address6_to_string(fib::parse_address6("1:0:0:2:3:0:0:4")),
            "1::2:3:0:0:4");
  // A single zero group is not compressed.
  EXPECT_EQ(fib::address6_to_string(fib::parse_address6("1:2:3:0:5:6:7:8")),
            "1:2:3:0:5:6:7:8");
}

TEST(Ipv6, RejectsMalformedInput) {
  for (const std::string text :
       {"", ":", ":::", "1:2:3:4:5:6:7", "1:2:3:4:5:6:7:8:9", "12345::",
        "g::", "1:2:3:4:5:6:7:8::", "::1::2", "1:", ":1:2:3:4:5:6:7",
        "1:2:3:4:5:6:7:8 "}) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)fib::parse_address6(text), CheckFailure);
  }
  EXPECT_THROW(Prefix6::parse("2001:db8::/129"), CheckFailure);
  EXPECT_THROW(Prefix6::parse("2001:db8::"), CheckFailure);  // no length
  // Host bits beyond the mask are a data error, exactly as for IPv4.
  EXPECT_THROW(Prefix6::parse("2001:db8::1/32"), CheckFailure);
}

TEST(Ipv6, PrefixContainment) {
  const Prefix6 wide = Prefix6::parse("2001:db8::/32");
  const Prefix6 narrow = Prefix6::parse("2001:db8:a000::/36");
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
  EXPECT_TRUE(wide.contains(fib::parse_address6("2001:db8::42")));
  EXPECT_FALSE(wide.contains(fib::parse_address6("2001:db9::42")));
  EXPECT_TRUE(Prefix6{}.contains(narrow));  // default route covers all
  // A /128 contains exactly itself.
  const Prefix6 host = Prefix6::parse("::1/128");
  EXPECT_TRUE(host.contains(fib::parse_address6("::1")));
  EXPECT_FALSE(host.contains(fib::parse_address6("::2")));
}

// --- Feed grammar --------------------------------------------------------

TEST(FeedGrammar, RecordsRoundTrip) {
  const std::vector<std::string> lines{
      "TABLE_DUMP|10.0.0.0/8|42",
      "TABLE_DUMP|2001:db8::/32|7",
      "1704067200|announce|192.168.0.0/16|9",
      "1704067201|announce|2001:db8:a000::/36|11",
      "1704067202|withdraw|10.0.0.0/8",
      "1704067203|withdraw|2001:db8::/32",
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    SCOPED_TRACE(lines[i]);
    const FeedRecord record = parse_feed_line(lines[i], i + 1);
    EXPECT_EQ(format_feed_record(record), lines[i]);
    // format emits the grammar parse accepts: a second round trip is
    // the identity on the record itself.
    EXPECT_EQ(parse_feed_line(format_feed_record(record), 1), record);
  }
}

TEST(FeedGrammar, ErrorsCarryLineNumbers) {
  const auto message_of = [](const std::string& line) -> std::string {
    try {
      (void)parse_feed_line(line, 17);
    } catch (const CheckFailure& e) {
      return e.what();
    }
    return {};
  };
  for (const std::string line :
       {"TABLE_DUMP|10.0.0.0/8",            // missing next hop
        "TABLE_DUMP|10.0.0.0/8|42|extra",   // trailing field
        "TABLE_DUMP|10.256.0.0/8|42",       // bad prefix
        "TABLE_DUMP|10.0.0.0/8|x",          // bad next hop
        "1704067200|announce|10.0.0.0/8",   // missing next hop
        "1704067200|withdraw|10.0.0.0/8|4", // trailing field
        "xyz|announce|10.0.0.0/8|4",        // bad timestamp
        "1704067200|reroute|10.0.0.0/8|4",  // unknown op
        "TABLE_DUMP"}) {
    SCOPED_TRACE(line);
    const std::string message = message_of(line);
    EXPECT_NE(message.find("feed line 17"), std::string::npos) << message;
  }
}

TEST(FeedReader, StreamsFilesSkipsCommentsNamesErrors) {
  const std::string good = "/tmp/treecache_test_feed_good.txt";
  const std::string bad = "/tmp/treecache_test_feed_bad.txt";
  {
    std::ofstream out(good);
    out << "# comment\n"
        << "\n"
        << "TABLE_DUMP|10.0.0.0/8|1\n"
        << "  \t\n"
        << "1|announce|10.1.0.0/16|2\r\n";  // CRLF tolerated
  }
  {
    std::ofstream out(bad);
    out << "TABLE_DUMP|10.0.0.0/8|1\n"
        << "# fine so far\n"
        << "1|bogus-op|10.0.0.0/8|1\n";
  }

  FeedReader reader({good, bad});
  EXPECT_EQ(reader.next()->op, FeedOp::kDump);
  EXPECT_EQ(reader.next()->op, FeedOp::kAnnounce);
  // The bad file's first record is fine; the second throws with the FILE
  // and its own (physical) line number.
  EXPECT_EQ(reader.next()->op, FeedOp::kDump);
  try {
    (void)reader.next();
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(bad), std::string::npos) << message;
    EXPECT_NE(message.find("feed line 3"), std::string::npos) << message;
  }
  EXPECT_THROW(FeedReader({"/nonexistent/feed.txt"}).next(), CheckFailure);
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(FeedReader, HardenedAgainstBomCrlfAndTruncatedFinalLine) {
  // A feed exported from tooling on another OS: UTF-8 BOM, CRLF line
  // endings, and a final line with no trailing newline. All of it parses.
  const std::string path = "/tmp/treecache_test_feed_hardened.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "\xEF\xBB\xBF"
        << "TABLE_DUMP|10.0.0.0/8|1\r\n"
        << "1|announce|10.1.0.0/16|2\r\n"
        << "2|withdraw|10.0.0.0/8";  // no trailing newline
  }
  FeedReader reader({path});
  EXPECT_EQ(reader.next()->op, FeedOp::kDump);
  EXPECT_EQ(reader.next()->op, FeedOp::kAnnounce);
  const auto last = reader.next();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->op, FeedOp::kWithdraw);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.records(), 3u);
  EXPECT_EQ(reader.bytes(), std::filesystem::file_size(path));
  std::remove(path.c_str());
}

TEST(FeedReader, BomDoesNotHideTheErrorPosition) {
  // The BOM is stripped BEFORE parsing, so a malformed first line still
  // reports line 1 — not a mystery "bad prefix" from three stray bytes.
  const std::string path = "/tmp/treecache_test_feed_bom_bad.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "\xEF\xBB\xBF"
        << "TABLE_DUMP|not-a-prefix|1\n";
  }
  FeedReader reader({path});
  try {
    (void)reader.next();
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("feed line 1"), std::string::npos) << message;
  }
  std::remove(path.c_str());
}

TEST(FeedGrammar, NextHopWiderThan32BitsIsRejected) {
  // NextHop is u32; a 64-bit value silently truncating would alias two
  // distinct routes. Both dump and announce paths must reject it.
  for (const std::string line : {"TABLE_DUMP|10.0.0.0/8|4294967296",
                                 "1|announce|10.0.0.0/8|99999999999"}) {
    SCOPED_TRACE(line);
    try {
      (void)parse_feed_line(line, 3);
      FAIL() << "expected CheckFailure";
    } catch (const CheckFailure& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("exceeds 32 bits"), std::string::npos) << message;
      EXPECT_NE(message.find("feed line 3"), std::string::npos) << message;
    }
  }
  // The full u32 range itself stays usable.
  EXPECT_EQ(parse_feed_line("TABLE_DUMP|10.0.0.0/8|4294967295", 1).next_hop,
            0xFFFFFFFFu);
}

// --- RibTable vs a naive reference, both widths --------------------------

/// The obviously-correct RIB: the set of live prefixes, plus every prefix
/// ever announced (the table keeps a slot for each, withdrawn or not).
template <typename PrefixT>
class NaiveRib {
 public:
  bool route_add(const PrefixT& prefix) {
    announced_.insert(prefix);
    return live_.insert(prefix).second;
  }
  bool route_delete(const PrefixT& prefix) { return live_.erase(prefix) > 0; }
  [[nodiscard]] bool live(const PrefixT& prefix) const {
    return live_.contains(prefix);
  }
  [[nodiscard]] std::size_t size() const { return live_.size(); }
  [[nodiscard]] const std::set<PrefixT>& announced() const {
    return announced_;
  }

 private:
  std::set<PrefixT> live_;
  std::set<PrefixT> announced_;
};

/// The table's entries() as a set, each prefix at most once.
template <typename PrefixT>
std::set<PrefixT> entry_set(const BasicRibTable<PrefixT>& rib) {
  const std::vector<PrefixT> entries = rib.entries();
  const std::set<PrefixT> set(entries.begin(), entries.end());
  EXPECT_EQ(set.size(), entries.size()) << "a prefix holds two slots";
  return set;
}

/// Withdraws every prefix the reference ever saw: the table must find
/// exactly the live ones live. Ends the run (it empties the table).
template <typename PrefixT>
void expect_same_live_routes(BasicRibTable<PrefixT>& rib,
                             const NaiveRib<PrefixT>& naive) {
  for (const PrefixT& p : naive.announced()) {
    EXPECT_EQ(rib.route_delete(p), naive.live(p)) << p.to_string();
  }
  EXPECT_EQ(rib.size(), 0u);
}

template <typename PrefixT>
void rib_matches_naive_reference(std::uint64_t seed) {
  using Family = fib::AddressFamily<typename PrefixT::Bits>;
  Rng rng(seed);

  BasicRibTable<PrefixT> rib;
  NaiveRib<PrefixT> naive;
  std::vector<PrefixT> live;

  for (int round = 0; round < 2000; ++round) {
    const bool remove = !live.empty() && rng.chance(0.3);
    if (remove) {
      const std::size_t i = rng.below(live.size());
      const PrefixT victim = live[i];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      EXPECT_EQ(rib.route_delete(victim), naive.route_delete(victim));
      // Deleting again misses in both.
      EXPECT_EQ(rib.route_delete(victim), naive.route_delete(victim));
    } else {
      const auto length =
          static_cast<std::uint8_t>(rng.below(Family::kWidth + 1));
      const PrefixT prefix = PrefixT::make(Family::random(rng), length);
      const bool was_new = naive.route_add(prefix);
      EXPECT_EQ(rib.route_add(prefix), was_new);
      if (was_new) live.push_back(prefix);
      // Adding again replaces in both.
      EXPECT_EQ(rib.route_add(prefix), naive.route_add(prefix));
    }
    ASSERT_EQ(rib.size(), naive.size()) << "round " << round;
    ASSERT_EQ(rib.entry_count(), naive.announced().size())
        << "round " << round;
  }
  EXPECT_EQ(entry_set(rib), naive.announced());
  expect_same_live_routes(rib, naive);
}

TEST(RibTable, MatchesNaiveReferenceIpv4) {
  rib_matches_naive_reference<Prefix>(101);
}

TEST(RibTable, MatchesNaiveReferenceIpv6) {
  rib_matches_naive_reference<Prefix6>(202);
}

/// Many add / delete cycles over a small pool of prefixes whose lengths
/// step through 0..kWidth: the even ones nest along one address and the
/// odd ones are scattered. Every prefix is withdrawn, re-announced and
/// replaced many times, which reuses its slot, and withdrawn slots live
/// through the table's growths.
template <typename PrefixT>
void slot_reuse_matches_naive_reference(std::uint64_t seed) {
  using Bits = typename PrefixT::Bits;
  using Family = fib::AddressFamily<Bits>;
  Rng rng(seed);
  constexpr std::size_t kPool = 64;
  const Bits base = Family::random(rng);
  std::vector<PrefixT> pool;
  for (std::size_t i = 0; i < kPool; ++i) {
    const auto length =
        static_cast<std::uint8_t>(i * PrefixT::kWidth / (kPool - 1));
    const Bits bits = i % 2 == 0 ? base : Family::random(rng);
    pool.push_back(PrefixT::make(bits, length));
  }

  BasicRibTable<PrefixT> rib;
  NaiveRib<PrefixT> naive;
  std::size_t growths_with_withdrawn = 0;
  std::size_t reannounced = 0;
  std::size_t replaced = 0;
  for (int round = 0; round < 4000; ++round) {
    const PrefixT& prefix = pool[rng.below(pool.size())];
    const std::size_t bytes_before = rib.memory_bytes();
    if (rng.chance(0.4)) {
      ASSERT_EQ(rib.route_delete(prefix), naive.route_delete(prefix));
    } else {
      const bool seen = naive.announced().contains(prefix);
      const bool fresh = naive.route_add(prefix);
      ASSERT_EQ(rib.route_add(prefix), fresh) << "round " << round;
      if (fresh && seen) ++reannounced;
      if (!fresh) ++replaced;
    }
    if (rib.memory_bytes() != bytes_before &&
        rib.size() < rib.entry_count()) {
      ++growths_with_withdrawn;
    }
    ASSERT_EQ(rib.size(), naive.size());
    ASSERT_EQ(rib.entry_count(), naive.announced().size());
  }
  EXPECT_EQ(entry_set(rib), naive.announced());
  EXPECT_GE(growths_with_withdrawn, 2u);
  EXPECT_GT(reannounced, 100u);
  EXPECT_GT(replaced, 100u);
  expect_same_live_routes(rib, naive);
}

TEST(RibTable, SlotReuseMatchesNaiveReferenceIpv4) {
  slot_reuse_matches_naive_reference<Prefix>(303);
}

TEST(RibTable, SlotReuseMatchesNaiveReferenceIpv6) {
  slot_reuse_matches_naive_reference<Prefix6>(404);
}

TEST(RibTable, DeletingAnAbsentPrefixChangesNothing) {
  RibTable rib;
  ASSERT_TRUE(rib.route_add(Prefix::parse("10.0.0.0/8")));
  ASSERT_TRUE(rib.route_add(Prefix::parse("10.1.0.0/16")));
  ASSERT_TRUE(rib.route_delete(Prefix::parse("10.1.0.0/16")));
  const std::vector<Prefix> entries = rib.entries();
  const std::size_t size = rib.size();
  const auto delete_misses = [&](const char* text) {
    EXPECT_FALSE(rib.route_delete(Prefix::parse(text))) << text;
    EXPECT_EQ(rib.size(), size) << text;
    EXPECT_EQ(rib.entries(), entries) << text;
  };
  // Never added: a shorter and a longer prefix of a live route, a sibling
  // and the default route. The withdrawn /16 misses too.
  delete_misses("10.0.0.0/7");
  delete_misses("10.0.0.0/9");
  delete_misses("11.0.0.0/8");
  delete_misses("0.0.0.0/0");
  delete_misses("10.1.0.0/16");
  EXPECT_EQ(size, 1u);
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_TRUE(rib.route_delete(Prefix::parse("10.0.0.0/8")));

  RibTable6 rib6;
  EXPECT_FALSE(rib6.route_delete(Prefix6::parse("2001:db8::/32")));
  EXPECT_EQ(rib6.size(), 0u);
  EXPECT_EQ(rib6.entry_count(), 0u);
  EXPECT_TRUE(rib6.entries().empty());
}

TEST(RibTable, EntriesNameEveryPrefixEverAnnounced) {
  // The replay rule tree is built over entries(): every prefix the feed
  // announced, once, withdrawn ones included — withdrawing a route keeps
  // its slot, and re-announcing it reuses that slot.
  Rng rng(7);
  RibTable rib;
  std::vector<Prefix> announced;
  for (int i = 0; i < 300; ++i) {
    const auto length = static_cast<std::uint8_t>(1 + rng.below(24));
    const Prefix p = Prefix::make(fib::AddressFamily<Address>::random(rng),
                                  length);
    if (rib.route_add(p)) announced.push_back(p);
  }
  for (int i = 0; i < 50; ++i) {
    const Prefix& victim = announced[rng.below(announced.size())];
    (void)rib.route_delete(victim);
    if (rng.chance(0.5)) {
      EXPECT_TRUE(rib.route_add(victim));
    }
  }
  std::vector<Prefix> entries = rib.entries();
  EXPECT_EQ(entries.size(), rib.entry_count());
  const auto by_length_then_bits = [](const Prefix& a, const Prefix& b) {
    return std::pair(a.length, a.bits) < std::pair(b.length, b.bits);
  };
  std::ranges::sort(entries, by_length_then_bits);
  std::ranges::sort(announced, by_length_then_bits);
  EXPECT_EQ(entries, announced);
  EXPECT_LT(rib.size(), rib.entry_count());
  // 16 bytes per IPv4 slot, as the rib-1m rows' memory audit reads it:
  // 193 to 383 entries fill 512 slots at 3/4 load.
  ASSERT_GT(rib.entry_count(), 192u);
  ASSERT_LT(rib.entry_count(), 384u);
  EXPECT_EQ(rib.memory_bytes(), std::size_t{512} * 16);
}

// --- Synthetic feeds and ingest ------------------------------------------

TEST(GenerateFeed, DumpFirstTimestampedUpdatesApplyCleanly) {
  for (const int family : {4, 6, 46}) {
    SCOPED_TRACE("family " + std::to_string(family));
    Rng rng(91);
    const SyntheticFeedConfig config{
        .routes = 120, .updates = 60, .family = family};
    const std::vector<FeedRecord> records = generate_feed(config, rng);

    const std::size_t families = family == 46 ? 2u : 1u;
    ASSERT_EQ(records.size(), config.routes * families + config.updates);
    std::uint64_t last_timestamp = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const FeedRecord& record = records[i];
      if (i < config.routes * families) {
        EXPECT_EQ(record.op, FeedOp::kDump);
      } else {
        EXPECT_NE(record.op, FeedOp::kDump);
        EXPECT_GE(record.timestamp, config.base_timestamp);
        EXPECT_GE(record.timestamp, last_timestamp);
        last_timestamp = record.timestamp;
      }
      if (family != 46) {
        EXPECT_EQ(record.v6, family == 6);
      }
    }

    // The generator only withdraws live routes and only dumps distinct
    // prefixes, so ingest sees no noise.
    IngestResult ingest;
    for (const FeedRecord& record : records) ingest.apply(record);
    EXPECT_EQ(ingest.records, records.size());
    EXPECT_EQ(ingest.v4.stats.withdraw_misses, 0u);
    EXPECT_EQ(ingest.v6.stats.withdraw_misses, 0u);
    EXPECT_EQ(ingest.v4.empty(), family == 6);
    EXPECT_EQ(ingest.v6.empty(), family == 4);
    if (family != 6) {
      EXPECT_EQ(ingest.v4.stats.dump_routes, config.routes);
      EXPECT_EQ(ingest.v4.rib.size(), config.routes +
                                          ingest.v4.stats.announces -
                                          ingest.v4.stats.replaced_routes -
                                          ingest.v4.stats.withdraws);
    }
  }
}

TEST(DepthHistogram, CountsNodesPerDepth) {
  // A path of 4 nodes: one node at each depth.
  const fib::RuleTree path = fib::build_rule_tree(std::vector<Prefix>{
      Prefix::parse("128.0.0.0/1"), Prefix::parse("192.0.0.0/2"),
      Prefix::parse("224.0.0.0/3")});
  EXPECT_EQ(depth_histogram(path.tree),
            (std::vector<std::uint64_t>{1, 1, 1, 1}));

  // Sibling rules: root plus two depth-1 nodes.
  const fib::RuleTree flat = fib::build_rule_tree(std::vector<Prefix>{
      Prefix::parse("10.0.0.0/8"), Prefix::parse("11.0.0.0/8")});
  EXPECT_EQ(depth_histogram(flat.tree), (std::vector<std::uint64_t>{1, 2}));
}

}  // namespace
}  // namespace treecache::rib
