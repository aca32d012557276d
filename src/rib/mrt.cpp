#include "rib/mrt.hpp"

#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

namespace treecache::rib {

namespace {

[[noreturn]] void fail_at(std::uint64_t offset, const std::string& what) {
  throw CheckFailure("MRT: " + what + " at offset " + std::to_string(offset));
}

/// Bounds-checked big-endian field reader over one record's bytes.
/// `base` is the absolute file offset of data[0], so every error names
/// the exact byte that went wrong.
struct Cursor {
  std::span<const std::uint8_t> data;
  std::uint64_t base = 0;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    fail_at(base + pos, what);
  }
  void need(std::size_t n, const char* what) const {
    if (data.size() - pos < n) {
      fail(std::string(what) + " overruns the record");
    }
  }
  std::uint8_t u8(const char* what) {
    need(1, what);
    return data[pos++];
  }
  std::uint16_t u16(const char* what) {
    need(2, what);
    const auto value = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data[pos]) << 8) | data[pos + 1]);
    pos += 2;
    return value;
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value = (value << 8) | data[pos + static_cast<std::size_t>(i)];
    }
    pos += 4;
    return value;
  }
  std::span<const std::uint8_t> take(std::size_t n, const char* what) {
    need(n, what);
    const auto bytes = data.subspan(pos, n);
    pos += n;
    return bytes;
  }
  /// A sub-cursor over the next `n` bytes (a length-prefixed field's
  /// body); reads inside it can never escape the field.
  Cursor sub(std::size_t n, const char* what) {
    const std::uint64_t sub_base = base + pos;
    return Cursor{take(n, what), sub_base};
  }
  [[nodiscard]] std::size_t remaining() const { return data.size() - pos; }
  [[nodiscard]] bool done() const { return pos == data.size(); }
};

template <typename Bits>
Bits bits_from_bytes(std::span<const std::uint8_t> bytes);

template <>
std::uint32_t bits_from_bytes<std::uint32_t>(
    std::span<const std::uint8_t> bytes) {
  std::uint32_t bits = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bits |= static_cast<std::uint32_t>(bytes[i]) << (24 - 8 * i);
  }
  return bits;
}

template <>
fib::U128 bits_from_bytes<fib::U128>(std::span<const std::uint8_t> bytes) {
  fib::U128 bits;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const auto byte = static_cast<std::uint64_t>(bytes[i]);
    if (i < 8) {
      bits.hi |= byte << (56 - 8 * i);
    } else {
      bits.lo |= byte << (56 - 8 * (i - 8));
    }
  }
  return bits;
}

/// One NLRI element: length byte + ceil(length/8) prefix bytes.
/// PrefixT::make masks any pad bits in the final byte.
template <typename PrefixT>
PrefixT read_nlri_prefix(Cursor& c) {
  const std::uint8_t length = c.u8("NLRI prefix length");
  if (length > PrefixT::kWidth) {
    c.fail("NLRI prefix length " + std::to_string(length) +
           " exceeds the address width");
  }
  const auto bytes = c.take((length + 7u) / 8u, "NLRI prefix bits");
  return PrefixT::make(bits_from_bytes<typename PrefixT::Bits>(bytes),
                       length);
}

/// Next-hop identity: the low 32 bits of the next-hop address bytes.
NextHop low32(std::span<const std::uint8_t> bytes) {
  std::uint32_t value = 0;
  for (const std::uint8_t byte :
       bytes.size() > 4 ? bytes.last(4) : bytes) {
    value = (value << 8) | byte;
  }
  return value;
}

/// The attributes the pipeline consumes, pulled from one BGP attribute
/// block. Everything else (ORIGIN, AS_PATH, communities, ...) is skipped
/// after a bounds-validated length walk.
struct ParsedAttrs {
  std::optional<NextHop> next_hop4;     // NEXT_HOP (type 3)
  std::optional<NextHop> mp_next_hop;   // MP_REACH next hop, low 32 bits
  std::uint16_t mp_reach_afi = 0;
  std::optional<Cursor> mp_reach_nlri;  // full MP_REACH form only
  std::uint16_t mp_unreach_afi = 0;
  std::optional<Cursor> mp_unreach_nlri;
};

/// `table_dump_v2` selects the abbreviated MP_REACH_NLRI form of
/// RFC 6396 §4.3.4 (next-hop length + next hop only, family implied by
/// the record subtype).
ParsedAttrs walk_attributes(Cursor attrs, bool table_dump_v2) {
  ParsedAttrs out;
  while (!attrs.done()) {
    const std::uint8_t flags = attrs.u8("attribute flags");
    const std::uint8_t type = attrs.u8("attribute type");
    const std::size_t length = (flags & 0x10) != 0
                                   ? attrs.u16("attribute length")
                                   : attrs.u8("attribute length");
    Cursor body = attrs.sub(length, "attribute body");
    if (type == 3 && length == 4) {  // NEXT_HOP
      out.next_hop4 = body.u32("NEXT_HOP address");
    } else if (type == 14) {  // MP_REACH_NLRI
      std::uint16_t afi = 0;
      if (!table_dump_v2) {
        afi = body.u16("MP_REACH AFI");
        body.u8("MP_REACH SAFI");
      }
      const std::uint8_t nh_len = body.u8("MP_REACH next-hop length");
      out.mp_next_hop = low32(body.take(nh_len, "MP_REACH next hop"));
      if (!table_dump_v2) {
        body.u8("MP_REACH reserved byte");
        out.mp_reach_afi = afi;
        out.mp_reach_nlri = body;  // rest of the attribute is NLRI
      }
    } else if (type == 15) {  // MP_UNREACH_NLRI
      out.mp_unreach_afi = body.u16("MP_UNREACH AFI");
      body.u8("MP_UNREACH SAFI");
      out.mp_unreach_nlri = body;
    }
  }
  return out;
}

void decode_peer_index_table(Cursor c) {
  c.u32("collector BGP ID");
  c.take(c.u16("view name length"), "view name");
  const std::uint16_t peers = c.u16("peer count");
  for (std::uint16_t i = 0; i < peers; ++i) {
    const std::uint8_t type = c.u8("peer type");
    c.u32("peer BGP ID");
    c.take((type & 0x1) != 0 ? 16 : 4, "peer IP address");
    c.take((type & 0x2) != 0 ? 4 : 2, "peer AS");
  }
  if (!c.done()) c.fail("trailing bytes after the peer index table");
}

template <typename PrefixT>
void decode_rib_record(Cursor c, std::uint32_t timestamp,
                       std::vector<FeedRecord>& out) {
  c.u32("RIB sequence number");
  const PrefixT prefix = read_nlri_prefix<PrefixT>(c);
  const std::uint16_t entries = c.u16("RIB entry count");
  std::optional<NextHop> hop;
  for (std::uint16_t e = 0; e < entries; ++e) {
    const std::uint16_t peer = c.u16("RIB entry peer index");
    c.u32("RIB entry originated time");
    const std::uint16_t attr_len = c.u16("RIB entry attribute length");
    const ParsedAttrs attrs =
        walk_attributes(c.sub(attr_len, "RIB entry attributes"), true);
    if (!hop) {
      if (attrs.next_hop4) {
        hop = *attrs.next_hop4;
      } else if (attrs.mp_next_hop) {
        hop = *attrs.mp_next_hop;
      } else {
        hop = static_cast<NextHop>(peer) + 1;
      }
    }
  }
  if (!c.done()) c.fail("trailing bytes after the RIB entries");
  if (entries == 0) return;  // prefix with no surviving routes
  FeedRecord& record = out.emplace_back();
  record.op = FeedOp::kDump;
  record.timestamp = timestamp;
  record.next_hop = *hop;
  if constexpr (std::is_same_v<PrefixT, fib::Prefix6>) {
    record.v6 = true;
    record.prefix6 = prefix;
  } else {
    record.v6 = false;
    record.prefix4 = prefix;
  }
}

template <typename PrefixT>
void push_updates(Cursor nlri, FeedOp op, std::uint64_t timestamp,
                  NextHop next_hop, std::vector<FeedRecord>& out) {
  while (!nlri.done()) {
    const PrefixT prefix = read_nlri_prefix<PrefixT>(nlri);
    FeedRecord& record = out.emplace_back();
    record.op = op;
    record.timestamp = timestamp;
    if (op != FeedOp::kWithdraw) record.next_hop = next_hop;
    if constexpr (std::is_same_v<PrefixT, fib::Prefix6>) {
      record.v6 = true;
      record.prefix6 = prefix;
    } else {
      record.v6 = false;
      record.prefix4 = prefix;
    }
  }
}

/// Dispatches an MP NLRI block by its AFI (1 = IPv4 over MP, 2 = IPv6).
void push_mp_updates(Cursor nlri, std::uint16_t afi, FeedOp op,
                     std::uint64_t timestamp, NextHop next_hop,
                     std::vector<FeedRecord>& out) {
  if (afi == 2) {
    push_updates<fib::Prefix6>(nlri, op, timestamp, next_hop, out);
  } else if (afi == 1) {
    push_updates<fib::Prefix>(nlri, op, timestamp, next_hop, out);
  } else {
    nlri.fail("unsupported MP AFI " + std::to_string(afi));
  }
}

void decode_bgp4mp(Cursor c, std::uint16_t subtype, std::uint32_t timestamp,
                   bool extended, std::vector<FeedRecord>& out) {
  if (extended) c.u32("BGP4MP_ET microsecond timestamp");
  if (subtype != kMrtBgp4mpMessage && subtype != kMrtBgp4mpMessageAs4) {
    return;  // STATE_CHANGE and friends carry no routes
  }
  const bool as4 = subtype == kMrtBgp4mpMessageAs4;
  if (as4) {
    c.u32("peer AS");
    c.u32("local AS");
  } else {
    c.u16("peer AS");
    c.u16("local AS");
  }
  c.u16("interface index");
  const std::uint16_t afi = c.u16("BGP4MP address family");
  if (afi != 1 && afi != 2) {
    c.fail("unsupported BGP4MP AFI " + std::to_string(afi));
  }
  const std::size_t addr_bytes = afi == 2 ? 16 : 4;
  c.take(addr_bytes, "peer IP address");
  c.take(addr_bytes, "local IP address");
  for (const std::uint8_t byte : c.take(16, "BGP marker")) {
    if (byte != 0xFF) c.fail("bad BGP marker (expected 16 x 0xFF)");
  }
  const std::uint16_t msg_len = c.u16("BGP message length");
  if (msg_len < 19) {
    c.fail("BGP message length " + std::to_string(msg_len) +
           " is below the 19-byte header");
  }
  const std::uint8_t msg_type = c.u8("BGP message type");
  Cursor msg = c.sub(msg_len - 19, "BGP message body");
  if (!c.done()) c.fail("trailing bytes after the BGP message");
  if (msg_type != 2) return;  // only UPDATEs carry routes

  const std::uint16_t withdrawn_len = msg.u16("withdrawn routes length");
  Cursor withdrawn = msg.sub(withdrawn_len, "withdrawn routes");
  push_updates<fib::Prefix>(withdrawn, FeedOp::kWithdraw, timestamp, 0, out);
  const std::uint16_t attr_len = msg.u16("path attribute length");
  const ParsedAttrs attrs =
      walk_attributes(msg.sub(attr_len, "path attributes"), false);
  if (attrs.mp_unreach_nlri) {
    push_mp_updates(*attrs.mp_unreach_nlri, attrs.mp_unreach_afi,
                    FeedOp::kWithdraw, timestamp, 0, out);
  }
  // Remaining message bytes are the classic IPv4 NLRI.
  push_updates<fib::Prefix>(msg.sub(msg.remaining(), "NLRI"),
                            FeedOp::kAnnounce, timestamp,
                            attrs.next_hop4.value_or(0), out);
  if (attrs.mp_reach_nlri) {
    push_mp_updates(*attrs.mp_reach_nlri, attrs.mp_reach_afi,
                    FeedOp::kAnnounce, timestamp,
                    attrs.mp_next_hop.value_or(0), out);
  }
}

/// Decodes one record's body by its type and subtype into `out`.
void decode_body(Cursor body, std::uint16_t type, std::uint16_t subtype,
                 std::uint32_t timestamp, std::vector<FeedRecord>& out) {
  switch (type) {
    case kMrtTypeTableDumpV2:
      switch (subtype) {
        case kMrtPeerIndexTable:
          decode_peer_index_table(body);
          break;
        case kMrtRibIpv4Unicast:
          decode_rib_record<fib::Prefix>(body, timestamp, out);
          break;
        case kMrtRibIpv6Unicast:
          decode_rib_record<fib::Prefix6>(body, timestamp, out);
          break;
        default:
          break;  // RIB_GENERIC / multicast / ADDPATH subtypes: skipped
      }
      break;
    case kMrtTypeBgp4mp:
      decode_bgp4mp(body, subtype, timestamp, false, out);
      break;
    case kMrtTypeBgp4mpEt:
      decode_bgp4mp(body, subtype, timestamp, true, out);
      break;
    default:
      break;  // legacy TABLE_DUMP: length-validated skip
  }
}

bool known_type(std::uint16_t type) {
  return type == kMrtTypeTableDump || type == kMrtTypeTableDumpV2 ||
         type == kMrtTypeBgp4mp || type == kMrtTypeBgp4mpEt;
}

}  // namespace

bool looks_like_mrt(std::span<const std::uint8_t> head) {
  if (head.size() < kMrtHeaderBytes) return false;
  const auto type =
      static_cast<std::uint16_t>((head[4] << 8) | head[5]);
  if (!known_type(type)) return false;
  std::uint32_t length = 0;
  for (int i = 8; i < 12; ++i) {
    length = (length << 8) | head[static_cast<std::size_t>(i)];
  }
  return length <= kMaxMrtRecordBytes;
}

std::size_t decode_mrt_block(std::span<const std::uint8_t> bytes,
                             std::uint64_t file_offset,
                             std::vector<FeedRecord>& out) {
  std::size_t pos = 0;
  std::size_t delivered = out.size();  // after the records before pos
  try {
    while (bytes.size() - pos >= kMrtHeaderBytes) {
      const std::uint64_t offset = file_offset + pos;
      Cursor h{bytes.subspan(pos, kMrtHeaderBytes), offset};
      const std::uint32_t timestamp = h.u32("timestamp");
      const std::uint16_t type = h.u16("type");
      if (!known_type(type)) {
        fail_at(offset + 4,
                "unsupported MRT record type " + std::to_string(type));
      }
      const std::uint16_t subtype = h.u16("subtype");
      const std::uint32_t length = h.u32("record length");
      if (length > kMaxMrtRecordBytes) {
        fail_at(offset + 8,
                "record length " + std::to_string(length) + " exceeds the " +
                    std::to_string(kMaxMrtRecordBytes) + "-byte cap");
      }
      if (bytes.size() - pos - kMrtHeaderBytes < length) break;
      pos += kMrtHeaderBytes;
      decode_body(Cursor{bytes.subspan(pos, length), file_offset + pos}, type,
                  subtype, timestamp, out);
      pos += length;
      delivered = out.size();
    }
  } catch (const CheckFailure&) {
    out.resize(delivered);  // drop what the bad record decoded before failing
    throw;
  }
  return pos;
}

std::vector<FeedRecord> decode_mrt(std::span<const std::uint8_t> bytes) {
  std::vector<FeedRecord> out;
  const std::size_t used = decode_mrt_block(bytes, 0, out);
  if (used < bytes.size()) {
    fail_at(used, "truncated record (file ends mid-record)");
  }
  return out;
}

namespace {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t value) {
  out.push_back(value);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

void put_prefix(std::vector<std::uint8_t>& out, std::uint32_t bits,
                std::uint8_t length) {
  const std::size_t n = (length + 7u) / 8u;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (24 - 8 * i)));
  }
}

void put_prefix(std::vector<std::uint8_t>& out, const fib::U128& bits,
                std::uint8_t length) {
  const std::size_t n = (length + 7u) / 8u;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t word = i < 8 ? bits.hi : bits.lo;
    out.push_back(static_cast<std::uint8_t>(word >> (56 - 8 * (i % 8))));
  }
}

void put_bytes(std::vector<std::uint8_t>& out,
               const std::vector<std::uint8_t>& bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

}  // namespace

void MrtWriter::emit_record(std::uint16_t type, std::uint16_t subtype,
                            std::uint64_t timestamp,
                            const std::vector<std::uint8_t>& body) {
  TC_CHECK(timestamp <= 0xFFFFFFFFull,
           "timestamp " + std::to_string(timestamp) +
               " does not fit the 32-bit MRT header");
  TC_CHECK(body.size() <= kMaxMrtRecordBytes, "MRT record body too large");
  std::vector<std::uint8_t> header;
  put_u32(header, static_cast<std::uint32_t>(timestamp));
  put_u16(header, type);
  put_u16(header, subtype);
  put_u32(header, static_cast<std::uint32_t>(body.size()));
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
  out_.write(reinterpret_cast<const char*>(body.data()),
             static_cast<std::streamsize>(body.size()));
  TC_CHECK(out_.good(), "MRT write failed");
  bytes_ += header.size() + body.size();
}

void MrtWriter::write_peer_index_table() {
  std::vector<std::uint8_t> body;
  put_u32(body, 0);   // collector BGP ID
  put_u16(body, 0);   // empty view name
  put_u16(body, 1);   // one synthetic peer, index 0
  put_u8(body, 0x2);  // IPv4 address, 4-byte AS
  put_u32(body, 0);   // peer BGP ID
  put_u32(body, 0);   // peer IP 0.0.0.0
  put_u32(body, 0);   // peer AS
  emit_record(kMrtTypeTableDumpV2, kMrtPeerIndexTable, 0, body);
}

void MrtWriter::write(const FeedRecord& record) {
  if (record.op == FeedOp::kDump) {
    if (!peer_table_written_) {
      write_peer_index_table();
      peer_table_written_ = true;
    }
    std::vector<std::uint8_t> body;
    put_u32(body, sequence_++);
    if (record.v6) {
      put_u8(body, record.prefix6.length);
      put_prefix(body, record.prefix6.bits, record.prefix6.length);
    } else {
      put_u8(body, record.prefix4.length);
      put_prefix(body, record.prefix4.bits, record.prefix4.length);
    }
    put_u16(body, 1);  // one RIB entry
    put_u16(body, 0);  // peer index 0
    put_u32(body, 0);  // originated time
    std::vector<std::uint8_t> attrs;
    if (record.v6) {
      // Abbreviated MP_REACH_NLRI (RFC 6396 §4.3.4): next-hop length +
      // next hop, identity in the low 32 bits of the address.
      put_u8(attrs, 0x80);  // optional
      put_u8(attrs, 14);    // MP_REACH_NLRI
      put_u8(attrs, 17);
      put_u8(attrs, 16);  // next-hop length
      for (int i = 0; i < 12; ++i) put_u8(attrs, 0);
      put_u32(attrs, record.next_hop);
    } else {
      put_u8(attrs, 0x40);  // well-known
      put_u8(attrs, 3);     // NEXT_HOP
      put_u8(attrs, 4);
      put_u32(attrs, record.next_hop);
    }
    put_u16(body, static_cast<std::uint16_t>(attrs.size()));
    put_bytes(body, attrs);
    emit_record(kMrtTypeTableDumpV2,
                record.v6 ? kMrtRibIpv6Unicast : kMrtRibIpv4Unicast,
                record.timestamp, body);
    return;
  }

  // Announce / withdraw: one BGP4MP MESSAGE_AS4 UPDATE per record.
  std::vector<std::uint8_t> attrs;
  std::vector<std::uint8_t> withdrawn;
  std::vector<std::uint8_t> nlri;
  if (record.op == FeedOp::kWithdraw) {
    if (record.v6) {
      std::vector<std::uint8_t> mp;
      put_u16(mp, 2);  // AFI IPv6
      put_u8(mp, 1);   // SAFI unicast
      put_u8(mp, record.prefix6.length);
      put_prefix(mp, record.prefix6.bits, record.prefix6.length);
      put_u8(attrs, 0x80);  // optional
      put_u8(attrs, 15);    // MP_UNREACH_NLRI
      put_u8(attrs, static_cast<std::uint8_t>(mp.size()));
      put_bytes(attrs, mp);
    } else {
      put_u8(withdrawn, record.prefix4.length);
      put_prefix(withdrawn, record.prefix4.bits, record.prefix4.length);
    }
  } else {
    // ORIGIN INCOMPLETE + empty AS_PATH keep the UPDATE well-formed for
    // third-party MRT tools.
    put_u8(attrs, 0x40);
    put_u8(attrs, 1);  // ORIGIN
    put_u8(attrs, 1);
    put_u8(attrs, 2);
    put_u8(attrs, 0x40);
    put_u8(attrs, 2);  // AS_PATH
    put_u8(attrs, 0);
    if (record.v6) {
      std::vector<std::uint8_t> mp;
      put_u16(mp, 2);  // AFI IPv6
      put_u8(mp, 1);   // SAFI unicast
      put_u8(mp, 16);  // next-hop length
      for (int i = 0; i < 12; ++i) put_u8(mp, 0);
      put_u32(mp, record.next_hop);
      put_u8(mp, 0);  // reserved
      put_u8(mp, record.prefix6.length);
      put_prefix(mp, record.prefix6.bits, record.prefix6.length);
      // Extended length on purpose: exercises the decoder's 2-byte
      // attribute-length path.
      put_u8(attrs, 0x90);  // optional + extended length
      put_u8(attrs, 14);    // MP_REACH_NLRI
      put_u16(attrs, static_cast<std::uint16_t>(mp.size()));
      put_bytes(attrs, mp);
    } else {
      put_u8(attrs, 0x40);
      put_u8(attrs, 3);  // NEXT_HOP
      put_u8(attrs, 4);
      put_u32(attrs, record.next_hop);
      put_u8(nlri, record.prefix4.length);
      put_prefix(nlri, record.prefix4.bits, record.prefix4.length);
    }
  }

  std::vector<std::uint8_t> msg;
  put_u16(msg, static_cast<std::uint16_t>(withdrawn.size()));
  put_bytes(msg, withdrawn);
  put_u16(msg, static_cast<std::uint16_t>(attrs.size()));
  put_bytes(msg, attrs);
  put_bytes(msg, nlri);

  std::vector<std::uint8_t> body;
  put_u32(body, 0);  // peer AS
  put_u32(body, 0);  // local AS
  put_u16(body, 0);  // interface index
  put_u16(body, record.v6 ? 2 : 1);
  const std::size_t addr_bytes = record.v6 ? 16 : 4;
  for (std::size_t i = 0; i < 2 * addr_bytes; ++i) put_u8(body, 0);
  for (int i = 0; i < 16; ++i) put_u8(body, 0xFF);  // BGP marker
  put_u16(body, static_cast<std::uint16_t>(19 + msg.size()));
  put_u8(body, 2);  // UPDATE
  put_bytes(body, msg);
  emit_record(kMrtTypeBgp4mp, kMrtBgp4mpMessageAs4, record.timestamp, body);
}

std::vector<std::uint8_t> encode_mrt_feed(
    const std::vector<FeedRecord>& records) {
  std::ostringstream out(std::ios::binary);
  MrtWriter writer(out);
  for (const FeedRecord& record : records) {
    writer.write(record);
  }
  const std::string bytes = out.str();
  return {bytes.begin(), bytes.end()};
}

}  // namespace treecache::rib
