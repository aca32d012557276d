// Line-oriented MRT-style RIB feed format: the linearized form of a BGP
// table dump plus its update stream (what `bgpdump -m` emits from
// Route-Views MRT files, reduced to the fields the cache model uses).
//
// Grammar (one record per line; '#' starts a comment, blank lines skip):
//   TABLE_DUMP|<prefix>|<next-hop-id>             snapshot route
//   <timestamp>|announce|<prefix>|<next-hop-id>   update: add/replace
//   <timestamp>|withdraw|<prefix>                 update: delete
// <prefix> is IPv4 dotted-quad or IPv6 hex-group form, auto-detected per
// line by the presence of ':'; <next-hop-id> and <timestamp> are decimal.
// Parse errors throw CheckFailure carrying the 1-based line number, in
// the same style as core/trace.hpp's parse_request_line.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fib/ipv6.hpp"
#include "util/rng.hpp"

namespace treecache::rib {

/// Abstract next-hop identifier a feed carries with each route. A deployed
/// RIB stores a peer address plus path attributes; the decoders parse and
/// range-check it as a small integer, and the RIB table does not keep it.
using NextHop = std::uint32_t;

enum class FeedOp : std::uint8_t { kDump, kAnnounce, kWithdraw };

/// One parsed feed line. Exactly one of prefix4/prefix6 is meaningful,
/// selected by `v6`.
struct FeedRecord {
  std::uint64_t timestamp = 0;  // update lines only
  fib::Prefix6 prefix6{};       // valid when v6
  fib::Prefix prefix4{};        // valid when !v6
  NextHop next_hop = 0;         // dump/announce lines only
  FeedOp op = FeedOp::kDump;
  bool v6 = false;

  friend bool operator==(const FeedRecord&, const FeedRecord&) = default;
};
// Widest members first, so a 1 MiB block's batch carries no padding.
static_assert(sizeof(FeedRecord) == 48);

/// Parses one non-comment, non-blank feed line. Throws CheckFailure
/// naming `line_number` (1-based) on malformed input.
[[nodiscard]] FeedRecord parse_feed_line(const std::string& line,
                                         std::size_t line_number);

/// Serializes a record in the exact grammar parse_feed_line accepts.
[[nodiscard]] std::string format_feed_record(const FeedRecord& record);

/// Tail-follow tuning for FeedReader::follow(). The reader polls the
/// last feed file for growth and gives up after `idle` with no new
/// bytes (zero = follow forever, until the process is stopped).
struct FollowOptions {
  std::chrono::milliseconds poll{20};
  std::chrono::milliseconds idle{1000};
};

/// Bytes FeedReader asks for per read of an MRT file. One block holds
/// tens of thousands of records, and a record larger than a block grows
/// the buffer to fit it.
inline constexpr std::size_t kFeedBlockBytes = std::size_t{1} << 20;

/// Streams feed files in batches (never slurps — feeds can be
/// internet-table sized). Each file's format is sniffed at open: binary
/// MRT (RFC 6396, see rib/mrt.hpp) or the text grammar above, so dumps
/// and update feeds can mix formats freely. Multiple paths are read back
/// to back.
///
/// An MRT file is read kFeedBlockBytes at a time. Each read decodes every
/// complete record in the buffer into one batch and carries a partial
/// record at its end over to the next read, which is also how tail-follow
/// resumes mid-record. Bytes are counted, and the follow clock stamped,
/// once per read. A text file yields one line's record per batch.
///
/// Errors name the file plus the line (text) or byte offset (MRT), and
/// come after every record before the bad one: a malformed MRT record ends
/// its batch, and the call after that batch throws (and so does every
/// later call). Text hardening: a UTF-8 BOM at file start is stripped,
/// CRLF line endings parse, and a truncated final line without a newline
/// still parses (or errors with its position).
class FeedReader {
 public:
  explicit FeedReader(std::vector<std::string> paths);

  /// Switches to tail-follow mode: when the LAST file runs out of
  /// bytes, poll it for growth instead of returning — a growing feed
  /// becomes an unbounded churn stream. The stream ends only after
  /// `options.idle` passes with no growth (a partial MRT record left at
  /// that point is a truncation error).
  void follow(const FollowOptions& options) { follow_ = options; }

  /// The next records in feed order, or an empty span at the end of the
  /// last file. The span is valid until the next call to next_batch() or
  /// next().
  std::span<const FeedRecord> next_batch();

  /// The next record, or nullopt at the end of the last file: next_batch()
  /// one record at a time.
  std::optional<FeedRecord> next();

  /// Records returned so far.
  [[nodiscard]] std::uint64_t records() const { return records_; }

  /// Feed bytes consumed so far, across all files and both formats.
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  enum class Format : std::uint8_t { kText, kMrt };

  bool open_next_file();
  void detect_format();
  /// Fills batch_ from the current and later files; false at the end of
  /// the last one.
  bool refill();
  /// True when tail-follow applies here: follow mode is on, the current
  /// file is the last one, and the idle deadline has not passed yet.
  [[nodiscard]] bool following_here() const;
  /// Polls the current file for growth; false once idle expires.
  bool wait_for_growth();
  void note_progress(std::uint64_t n);
  std::optional<FeedRecord> next_text();
  /// Reads and decodes MRT blocks until batch_ holds a record; false at
  /// the end of the file.
  bool read_mrt();

  std::vector<std::string> paths_;
  std::size_t file_ = 0;  // index of the NEXT path to open
  std::ifstream in_;
  bool in_open_ = false;
  Format format_ = Format::kText;
  std::vector<FeedRecord> batch_;
  std::size_t batch_pos_ = 0;  // records of batch_ already returned
  std::string error_;  // a bad record's error, thrown once batch_ drains
  std::vector<std::uint8_t> block_;  // MRT bytes read, not yet decoded
  std::size_t block_fill_ = 0;
  std::uint64_t block_offset_ = 0;  // file offset of block_[0]
  std::size_t line_number_ = 0;
  std::string carry_;  // partial tail line stashed while following
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t file_bytes_seen_ = 0;
  std::optional<FollowOptions> follow_;
  bool follow_done_ = false;
  std::chrono::steady_clock::time_point last_growth_{};
};

/// Synthetic feed generator — the source of the checked-in CI fixtures,
/// so no external BGP data is ever needed. Emits a TABLE_DUMP snapshot of
/// `routes` prefixes (per family) followed by `updates` timestamped
/// events over the same table: re-announces with a new next hop, fresh
/// more-specific announces, and withdraws of live routes.
struct SyntheticFeedConfig {
  std::size_t routes = 256;
  std::size_t updates = 64;
  int family = 4;  // 4 = IPv4, 6 = IPv6, 46 = both (v4 dump first)
  double withdraw_probability = 0.35;
  /// Probability that an announce introduces a fresh more-specific
  /// prefix instead of re-routing an existing one.
  double fresh_announce_probability = 0.3;
  std::uint8_t max_length4 = 24;
  std::uint8_t max_length6 = 64;
  double deaggregation = 0.45;
  std::uint64_t base_timestamp = 1704067200;  // 2024-01-01 00:00:00 UTC
};

[[nodiscard]] std::vector<FeedRecord> generate_feed(
    const SyntheticFeedConfig& config, Rng& rng);

}  // namespace treecache::rib
