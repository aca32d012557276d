// Binary MRT (RFC 6396) codec for the subset the RIB pipeline consumes:
// TABLE_DUMP_V2 snapshots (PEER_INDEX_TABLE, RIB_IPV4_UNICAST,
// RIB_IPV6_UNICAST) and BGP4MP/BGP4MP_ET UPDATE messages (announce,
// withdraw, MP_REACH/MP_UNREACH for IPv6). Every record decodes to the
// same FeedRecord the text grammar produces, so text and binary feeds
// are interchangeable through FeedReader.
//
// One decoder serves every caller: decode_mrt_block parses the complete
// records of an in-memory block in place and leaves a partial record at
// its end for the caller to carry into the next block (FeedReader reads
// files in 1 MiB blocks; decode_mrt hands it a whole file). Decoding is
// hostile-input safe: all field reads go through a bounds-checked cursor,
// errors throw CheckFailure carrying the absolute byte offset, and a
// record's header (type and the length cap) is checked as soon as its 12
// bytes are in the block, before a caller grows any buffer to hold the
// body. Next-hop identity is the low 32 bits of the next-hop address
// (NEXT_HOP for IPv4, the MP_REACH next hop for IPv6); RIB entries
// without one fall back to peer index + 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "rib/feed.hpp"

namespace treecache::rib {

/// RFC 6396 record types / subtypes (the decoded subset).
inline constexpr std::uint16_t kMrtTypeTableDump = 12;  // legacy; skipped
inline constexpr std::uint16_t kMrtTypeTableDumpV2 = 13;
inline constexpr std::uint16_t kMrtTypeBgp4mp = 16;
inline constexpr std::uint16_t kMrtTypeBgp4mpEt = 17;
inline constexpr std::uint16_t kMrtPeerIndexTable = 1;
inline constexpr std::uint16_t kMrtRibIpv4Unicast = 2;
inline constexpr std::uint16_t kMrtRibIpv6Unicast = 4;
inline constexpr std::uint16_t kMrtBgp4mpMessage = 1;
inline constexpr std::uint16_t kMrtBgp4mpMessageAs4 = 4;

/// Common-header size: timestamp + type + subtype + body length.
inline constexpr std::size_t kMrtHeaderBytes = 12;

/// Largest record body the decoder will buffer. Real RIB records top out
/// around tens of KB; anything past this is a corrupt or hostile length
/// field, rejected before allocation.
inline constexpr std::uint32_t kMaxMrtRecordBytes = 16u << 20;

/// True when `head` (the first bytes of a file) plausibly starts an MRT
/// common header: a known record type and a sane length. Text feeds can
/// never collide — their bytes at the type position are printable ASCII,
/// far above any MRT type code.
[[nodiscard]] bool looks_like_mrt(std::span<const std::uint8_t> head);

/// Decodes every complete record at the front of `bytes` and appends its
/// FeedRecords to `out`, in file order; `file_offset` is the absolute
/// offset of bytes[0], which every error names. Returns the bytes
/// consumed, a record boundary: what follows is less than one record,
/// and its header, once whole, has already been checked. On a malformed
/// record it throws, leaving in `out` exactly what the records before it
/// decoded to.
std::size_t decode_mrt_block(std::span<const std::uint8_t> bytes,
                             std::uint64_t file_offset,
                             std::vector<FeedRecord>& out);

/// Batch decode of a whole in-memory MRT file. A partial record at the
/// tail throws CheckFailure naming the truncation offset.
[[nodiscard]] std::vector<FeedRecord> decode_mrt(
    std::span<const std::uint8_t> bytes);

/// Streaming encoder — the `gen-feed --format mrt` backend and the
/// round-trip test oracle. Dumps become TABLE_DUMP_V2 RIB records (a
/// one-peer PEER_INDEX_TABLE is emitted before the first one); announces
/// and withdraws become BGP4MP MESSAGE_AS4 UPDATEs (MP_REACH/MP_UNREACH
/// for IPv6). Timestamps must fit the 32-bit MRT header.
class MrtWriter {
 public:
  explicit MrtWriter(std::ostream& out) : out_(out) {}

  void write(const FeedRecord& record);

  /// Bytes written so far.
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  void emit_record(std::uint16_t type, std::uint16_t subtype,
                   std::uint64_t timestamp,
                   const std::vector<std::uint8_t>& body);
  void write_peer_index_table();

  std::ostream& out_;
  std::uint32_t sequence_ = 0;
  bool peer_table_written_ = false;
  std::uint64_t bytes_ = 0;
};

/// Encodes `records` into one in-memory MRT file.
[[nodiscard]] std::vector<std::uint8_t> encode_mrt_feed(
    const std::vector<FeedRecord>& records);

}  // namespace treecache::rib
