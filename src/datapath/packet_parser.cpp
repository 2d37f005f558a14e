#include "datapath/packet_parser.h"

#include "common/byte_cursor.h"
#include "common/hash.h"

namespace fcm::datapath {

namespace {

constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
constexpr std::uint16_t kEtherTypeIpv6 = 0x86DD;
constexpr std::uint16_t kEtherTypeVlan = 0x8100;   // 802.1Q
constexpr std::uint16_t kEtherTypeQinQ = 0x88A8;   // 802.1ad
constexpr std::uint16_t kEtherTypeVlan9100 = 0x9100;  // legacy QinQ

constexpr std::uint8_t kProtoTcp = 6;
constexpr std::uint8_t kProtoUdp = 17;

bool is_vlan(std::uint16_t ether_type) {
  return ether_type == kEtherTypeVlan || ether_type == kEtherTypeQinQ ||
         ether_type == kEtherTypeVlan9100;
}

// Deterministic 32-bit fold of the 128-bit IPv6 address at byte `At` of the
// header (big-endian halves mixed through mix64) so v6 flows live in the
// same FlowKey space as v4.
template <std::size_t At>
std::uint32_t fold_ipv6_address(const FixedBytes<40>& header) {
  const std::uint64_t high =
      (std::uint64_t{header.u32be<At>()} << 32) | header.u32be<At + 4>();
  const std::uint64_t low =
      (std::uint64_t{header.u32be<At + 8>()} << 32) | header.u32be<At + 12>();
  const std::uint64_t mixed = common::mix64(high ^ common::mix64(low));
  return static_cast<std::uint32_t>(mixed ^ (mixed >> 32));
}

// The helpers below take the cursor by reference: a by-value ByteCursor is
// rebuilt on the stack at every layer and reloaded wider than it was stored,
// which stalls store forwarding (DESIGN.md §12.1).

// Transport layer. `protocol` is the final IP next-header; non-TCP/UDP
// protocols (ICMP and everything else) key on addresses alone: ports stay 0.
ParseOutcome parse_transport(ByteCursor& cursor, std::uint8_t protocol,
                             flow::FiveTuple& tuple) {
  switch (protocol) {
    case kProtoTcp: {
      if (!cursor.can_read(20)) return ParseOutcome::kTruncatedTransport;
      const FixedBytes<20> header = cursor.take<20>();
      tuple.src_port = header.u16be<0>();
      tuple.dst_port = header.u16be<2>();
      const unsigned data_offset_words = header.u8<12>() >> 4;
      if (data_offset_words < 5) return ParseOutcome::kBadTransportHeader;
      return ParseOutcome::kOk;
    }
    case kProtoUdp: {
      if (!cursor.can_read(8)) return ParseOutcome::kTruncatedTransport;
      const FixedBytes<8> header = cursor.take<8>();
      tuple.src_port = header.u16be<0>();
      tuple.dst_port = header.u16be<2>();
      if (header.u16be<4>() < 8) return ParseOutcome::kBadTransportHeader;
      return ParseOutcome::kOk;
    }
    default:
      return ParseOutcome::kOk;  // ICMP & friends: address-keyed flow
  }
}

ParseOutcome parse_ipv4(ByteCursor& cursor, ParsedPacket& out) {
  if (!cursor.can_read(20)) return ParseOutcome::kTruncatedIp;
  const FixedBytes<20> header = cursor.take<20>();
  const std::uint8_t version_ihl = header.u8<0>();
  if ((version_ihl >> 4) != 4) return ParseOutcome::kBadIpHeader;
  const std::size_t header_length = (version_ihl & 0x0f) * std::size_t{4};
  if (header_length < 20) return ParseOutcome::kBadIpHeader;  // zero/short IHL
  // A datagram shorter than its own header means the "payload" would overlap
  // the header bytes — classic crafted-packet territory.
  if (header.u16be<2>() < header_length) return ParseOutcome::kBadIpHeader;
  const std::uint8_t protocol = header.u8<9>();
  out.tuple.src_ip = header.u32be<12>();
  out.tuple.dst_ip = header.u32be<16>();
  out.tuple.protocol = protocol;
  out.ip_version = 4;
  const std::size_t options_length = header_length - 20;
  if (!cursor.can_read(options_length)) return ParseOutcome::kTruncatedIp;
  cursor.skip(options_length);
  if ((header.u16be<6>() & 0x1fff) != 0) {
    return ParseOutcome::kOk;  // non-first fragment: no L4 header on the wire
  }
  return parse_transport(cursor, protocol, out.tuple);
}

ParseOutcome parse_ipv6(ByteCursor& cursor, ParsedPacket& out) {
  if (!cursor.can_read(40)) return ParseOutcome::kTruncatedIp;
  // Payload length (offset 4) is not trusted: the capture may be sliced.
  const FixedBytes<40> header = cursor.take<40>();
  if ((header.u8<0>() >> 4) != 6) return ParseOutcome::kBadIpHeader;
  std::uint8_t next_header = header.u8<6>();
  out.tuple.src_ip = fold_ipv6_address<8>(header);
  out.tuple.dst_ip = fold_ipv6_address<24>(header);
  out.ip_version = 6;
  // Bounded extension-header walk; a longer chain than this is either an
  // attack or garbage.
  for (int depth = 0; depth < 8; ++depth) {
    switch (next_header) {
      case 0:     // hop-by-hop options
      case 43:    // routing
      case 60: {  // destination options
        if (!cursor.can_read(2)) return ParseOutcome::kTruncatedIp;
        const FixedBytes<2> extension = cursor.take<2>();
        const std::size_t extension_length =
            (static_cast<std::size_t>(extension.u8<1>()) + 1) * 8;
        if (!cursor.can_read(extension_length - 2)) {
          return ParseOutcome::kTruncatedIp;
        }
        cursor.skip(extension_length - 2);
        next_header = extension.u8<0>();
        continue;
      }
      case 44: {  // fragment (fixed 8 bytes)
        if (!cursor.can_read(8)) return ParseOutcome::kTruncatedIp;
        const FixedBytes<8> fragment = cursor.take<8>();
        const std::uint8_t following = fragment.u8<0>();
        out.tuple.protocol = following;
        if ((fragment.u16be<2>() >> 3) != 0) {
          return ParseOutcome::kOk;  // non-first fragment: no L4 header
        }
        next_header = following;
        continue;
      }
      case 59:  // no next header
        out.tuple.protocol = next_header;
        return ParseOutcome::kOk;
      default:
        out.tuple.protocol = next_header;
        return parse_transport(cursor, next_header, out.tuple);
    }
  }
  return ParseOutcome::kBadIpHeader;  // absurd extension chain
}

ParseOutcome parse_raw_ip(ByteCursor& cursor, ParsedPacket& out) {
  if (!cursor.can_read(1)) return ParseOutcome::kTruncatedIp;
  const std::uint8_t version = cursor.peek<1>().u8<0>() >> 4;
  if (version == 4) return parse_ipv4(cursor, out);
  if (version == 6) return parse_ipv6(cursor, out);
  return ParseOutcome::kBadIpHeader;
}

}  // namespace

const char* to_string(ParseOutcome outcome) {
  switch (outcome) {
    case ParseOutcome::kOk: return "ok";
    case ParseOutcome::kUnsupportedLinkType: return "unsupported-link-type";
    case ParseOutcome::kUnsupportedEtherType: return "unsupported-ether-type";
    case ParseOutcome::kTruncatedLink: return "truncated-link";
    case ParseOutcome::kBadIpHeader: return "bad-ip-header";
    case ParseOutcome::kTruncatedIp: return "truncated-ip";
    case ParseOutcome::kBadTransportHeader: return "bad-transport-header";
    case ParseOutcome::kTruncatedTransport: return "truncated-transport";
    case ParseOutcome::kOutcomeCount: break;
  }
  return "unknown";
}

ParseOutcome parse_packet(const RawRecord& record, ParsedPacket& out) {
  out = ParsedPacket{};
  out.timestamp_ns = record.timestamp_ns;
  out.wire_bytes = record.original_length;
  ByteCursor cursor(record.bytes);
  switch (record.link_type) {
    case kLinkTypeEthernet: {
      if (!cursor.can_read(14)) return ParseOutcome::kTruncatedLink;
      // dst + src MAC, then the EtherType.
      std::uint16_t ether_type = cursor.take<14>().u16be<12>();
      for (int tags = 0; tags < 4 && is_vlan(ether_type); ++tags) {
        if (!cursor.can_read(4)) return ParseOutcome::kTruncatedLink;
        ether_type = cursor.take<4>().u16be<2>();  // after PCP/DEI/VID
      }
      if (is_vlan(ether_type)) return ParseOutcome::kBadIpHeader;  // tag bomb
      if (ether_type == kEtherTypeIpv4) return parse_ipv4(cursor, out);
      if (ether_type == kEtherTypeIpv6) return parse_ipv6(cursor, out);
      return ParseOutcome::kUnsupportedEtherType;
    }
    case kLinkTypeRawIp:
      return parse_raw_ip(cursor, out);
    case kLinkTypeNull:
    case kLinkTypeLoop: {
      // 4-byte AF_* family header in the CAPTURING host's byte order; accept
      // either (the values are small, so the swapped form is unambiguous).
      if (!cursor.can_read(4)) return ParseOutcome::kTruncatedLink;
      std::uint32_t family = cursor.take<4>().u32le<0>();
      if (family > 0xffff) {
        family = (family >> 24) | ((family >> 8) & 0xff00);
      }
      if (family == 2) return parse_ipv4(cursor, out);
      if (family == 24 || family == 28 || family == 30) {
        return parse_ipv6(cursor, out);
      }
      return ParseOutcome::kUnsupportedEtherType;
    }
    default:
      return ParseOutcome::kUnsupportedLinkType;
  }
}

}  // namespace fcm::datapath
