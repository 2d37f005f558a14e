// Capture-ingest suite (DESIGN.md §12): happy paths for every supported
// container variant (classic pcap micro/nano in both byte orders, pcapng in
// both byte orders with IDB/EPB/SPB and if_tsresol), ByteCursor's checked
// fixed-width views, the L2-L4 parser's decode matrix and exact-outcome
// prefix sweep, and the hostile-input battery mirroring test_wire.cpp —
// every-prefix truncation sweeps, corrupted magics/lengths, crafted headers
// with overlapping or zero lengths, and a seeded malformed-capture fuzzer.
// Nothing in here may crash or trip ASan/UBSan: damage surfaces only as
// PcapError, typed RecordOutcome/ParseOutcome values, and honest counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_cursor.h"
#include "common/contracts.h"
#include "common/random.h"
#include "datapath/capture_ingest.h"
#include "datapath/packet_parser.h"
#include "datapath/pcap_reader.h"
#include "flow/flow_key.h"
#include "obs/metrics_registry.h"

namespace fcm {
namespace {

using common::ByteCursor;
using datapath::CaptureStats;
using datapath::DecodedCapture;
using datapath::ParsedPacket;
using datapath::ParseOutcome;
using datapath::PcapError;
using datapath::PcapReader;
using datapath::RawRecord;
using datapath::RecordOutcome;

// --- capture builders -------------------------------------------------------
// Byte-level writers: every test constructs its capture from raw bytes so a
// test can damage any individual field without fighting an encoder API.

using Bytes = std::vector<std::byte>;

void put8(Bytes& out, std::uint8_t v) { out.push_back(std::byte{v}); }

void put16(Bytes& out, std::uint16_t v, bool be) {
  if (be) {
    put8(out, static_cast<std::uint8_t>(v >> 8));
    put8(out, static_cast<std::uint8_t>(v));
  } else {
    put8(out, static_cast<std::uint8_t>(v));
    put8(out, static_cast<std::uint8_t>(v >> 8));
  }
}

void put32(Bytes& out, std::uint32_t v, bool be) {
  if (be) {
    put16(out, static_cast<std::uint16_t>(v >> 16), true);
    put16(out, static_cast<std::uint16_t>(v), true);
  } else {
    put16(out, static_cast<std::uint16_t>(v), false);
    put16(out, static_cast<std::uint16_t>(v >> 16), false);
  }
}

void append(Bytes& out, std::span<const std::byte> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

void pad_to_4(Bytes& out) {
  while (out.size() % 4 != 0) put8(out, 0);
}

// Classic global header. The magic is written in the FILE's byte order, so a
// little-endian read of a big-endian file sees the swapped constant — exactly
// the sniffing rule the reader implements.
Bytes classic_header(bool be, bool nano, std::uint32_t snaplen = 0xffff,
                     std::uint32_t link_type = datapath::kLinkTypeEthernet) {
  Bytes out;
  put32(out, nano ? 0xa1b23c4d : 0xa1b2c3d4, be);
  put16(out, 2, be);   // version_major
  put16(out, 4, be);   // version_minor
  put32(out, 0, be);   // thiszone
  put32(out, 0, be);   // sigfigs
  put32(out, snaplen, be);
  put32(out, link_type, be);
  return out;
}

void classic_record(Bytes& out, bool be, std::uint32_t seconds,
                    std::uint32_t subsecond, std::span<const std::byte> data,
                    std::uint32_t capture_length, std::uint32_t original_length) {
  put32(out, seconds, be);
  put32(out, subsecond, be);
  put32(out, capture_length, be);
  put32(out, original_length, be);
  append(out, data);
}

void classic_record(Bytes& out, bool be, std::uint32_t seconds,
                    std::uint32_t subsecond, std::span<const std::byte> data) {
  const auto length = static_cast<std::uint32_t>(data.size());
  classic_record(out, be, seconds, subsecond, data, length, length);
}

// pcapng Section Header Block, no options (total length 28).
Bytes shb(bool be) {
  Bytes out;
  put32(out, 0x0A0D0D0A, be);  // byte palindrome either way
  put32(out, 28, be);
  put32(out, 0x1A2B3C4D, be);  // byte-order magic, file order
  put16(out, 1, be);           // major
  put16(out, 0, be);           // minor
  put32(out, 0xffffffff, be);  // section length -1 (unknown)
  put32(out, 0xffffffff, be);
  put32(out, 28, be);
  return out;
}

// Interface Description Block; tsresol < 0 means "no if_tsresol option".
Bytes idb(bool be, std::uint16_t link_type = datapath::kLinkTypeEthernet,
          std::uint32_t snaplen = 0, int tsresol = -1) {
  Bytes body;
  put16(body, link_type, be);
  put16(body, 0, be);  // reserved
  put32(body, snaplen, be);
  if (tsresol >= 0) {
    put16(body, 9, be);  // if_tsresol
    put16(body, 1, be);
    put8(body, static_cast<std::uint8_t>(tsresol));
    pad_to_4(body);
    put16(body, 0, be);  // opt_endofopt
    put16(body, 0, be);
  }
  Bytes out;
  const auto total = static_cast<std::uint32_t>(12 + body.size());
  put32(out, 1, be);
  put32(out, total, be);
  append(out, body);
  put32(out, total, be);
  return out;
}

Bytes epb(bool be, std::uint32_t interface_id, std::uint64_t ticks,
          std::span<const std::byte> data, std::uint32_t capture_length,
          std::uint32_t original_length) {
  Bytes body;
  put32(body, interface_id, be);
  put32(body, static_cast<std::uint32_t>(ticks >> 32), be);
  put32(body, static_cast<std::uint32_t>(ticks), be);
  put32(body, capture_length, be);
  put32(body, original_length, be);
  append(body, data);
  pad_to_4(body);
  Bytes out;
  const auto total = static_cast<std::uint32_t>(12 + body.size());
  put32(out, 6, be);
  put32(out, total, be);
  append(out, body);
  put32(out, total, be);
  return out;
}

Bytes epb(bool be, std::uint32_t interface_id, std::uint64_t ticks,
          std::span<const std::byte> data) {
  const auto length = static_cast<std::uint32_t>(data.size());
  return epb(be, interface_id, ticks, data, length, length);
}

Bytes spb(bool be, std::uint32_t original_length,
          std::span<const std::byte> data) {
  Bytes body;
  put32(body, original_length, be);
  append(body, data);
  pad_to_4(body);
  Bytes out;
  const auto total = static_cast<std::uint32_t>(12 + body.size());
  put32(out, 3, be);
  put32(out, total, be);
  append(out, body);
  put32(out, total, be);
  return out;
}

// --- packet builders --------------------------------------------------------
// Network headers are always big-endian regardless of the container's order.

Bytes tcp_header(std::uint16_t src_port, std::uint16_t dst_port,
                 std::uint8_t data_offset_words = 5) {
  Bytes out;
  put16(out, src_port, true);
  put16(out, dst_port, true);
  put32(out, 0, true);  // seq
  put32(out, 0, true);  // ack
  put8(out, static_cast<std::uint8_t>(data_offset_words << 4));
  put8(out, 0x10);      // flags: ACK
  put16(out, 0xffff, true);  // window
  put32(out, 0, true);  // checksum + urgent
  return out;
}

Bytes udp_header(std::uint16_t src_port, std::uint16_t dst_port,
                 std::uint16_t udp_length = 8) {
  Bytes out;
  put16(out, src_port, true);
  put16(out, dst_port, true);
  put16(out, udp_length, true);
  put16(out, 0, true);  // checksum
  return out;
}

struct Ipv4Options {
  std::uint8_t ihl_words = 5;
  int total_length = -1;  // -1 = header + payload
  std::uint16_t fragment = 0;  // flags/offset field, raw
  std::uint8_t version = 4;
};

Bytes ipv4_packet(std::uint32_t src_ip, std::uint32_t dst_ip,
                  std::uint8_t protocol, std::span<const std::byte> payload,
                  Ipv4Options options = {}) {
  Bytes out;
  put8(out, static_cast<std::uint8_t>((options.version << 4) |
                                      (options.ihl_words & 0x0f)));
  put8(out, 0);  // DSCP/ECN
  const std::size_t header_bytes = options.ihl_words * std::size_t{4};
  const std::uint16_t total =
      options.total_length >= 0
          ? static_cast<std::uint16_t>(options.total_length)
          : static_cast<std::uint16_t>(header_bytes + payload.size());
  put16(out, total, true);
  put16(out, 0x1234, true);  // identification
  put16(out, options.fragment, true);
  put8(out, 64);  // TTL
  put8(out, protocol);
  put16(out, 0, true);  // checksum (parser ignores)
  put32(out, src_ip, true);
  put32(out, dst_ip, true);
  for (std::size_t i = 20; i < header_bytes; ++i) put8(out, 0);  // options
  append(out, payload);
  return out;
}

Bytes ipv6_packet(std::uint8_t next_header, std::span<const std::byte> payload,
                  std::uint8_t src_low = 1, std::uint8_t dst_low = 2) {
  Bytes out;
  put32(out, 0x60000000, true);  // version 6
  put16(out, static_cast<std::uint16_t>(payload.size()), true);
  put8(out, next_header);
  put8(out, 64);  // hop limit
  for (int i = 0; i < 15; ++i) put8(out, 0x20);
  put8(out, src_low);
  for (int i = 0; i < 15; ++i) put8(out, 0x20);
  put8(out, dst_low);
  append(out, payload);
  return out;
}

Bytes ethernet_frame(std::uint16_t ether_type, std::span<const std::byte> payload,
                     int vlan_tags = 0) {
  Bytes out;
  for (int i = 0; i < 12; ++i) put8(out, static_cast<std::uint8_t>(i));  // MACs
  for (int i = 0; i < vlan_tags; ++i) {
    put16(out, 0x8100, true);
    put16(out, static_cast<std::uint16_t>(100 + i), true);
  }
  put16(out, ether_type, true);
  append(out, payload);
  return out;
}

Bytes tcp4_frame(std::uint32_t src_ip, std::uint32_t dst_ip,
                 std::uint16_t src_port, std::uint16_t dst_port) {
  const Bytes tcp = tcp_header(src_port, dst_port);
  return ethernet_frame(0x0800, ipv4_packet(src_ip, dst_ip, 6, tcp));
}

std::span<const std::byte> as_span(const Bytes& bytes) { return bytes; }

// Reads the whole capture, returning per-call outcomes until a terminal one.
struct ReadResult {
  std::vector<RawRecord> records;
  RecordOutcome end = RecordOutcome::kEndOfCapture;
};

ReadResult read_all(PcapReader& reader) {
  ReadResult result;
  RawRecord record;
  for (;;) {
    const RecordOutcome outcome = reader.next(record);
    if (outcome != RecordOutcome::kRecord) {
      result.end = outcome;
      return result;
    }
    result.records.push_back(record);
  }
}

// --- classic happy paths ----------------------------------------------------

class ClassicEndianness : public ::testing::TestWithParam<bool> {};

TEST_P(ClassicEndianness, MicrosecondCaptureRoundTrips) {
  const bool be = GetParam();
  Bytes capture = classic_header(be, /*nano=*/false);
  const Bytes frame_a = tcp4_frame(0x0a000001, 0x0a000002, 1234, 80);
  const Bytes frame_b = tcp4_frame(0x0a000003, 0x0a000004, 4321, 443);
  classic_record(capture, be, 100, 250'000, frame_a);
  classic_record(capture, be, 101, 1, frame_b);

  PcapReader reader(capture);
  EXPECT_FALSE(reader.is_pcapng());
  EXPECT_EQ(reader.big_endian(), be);
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.end, RecordOutcome::kEndOfCapture);
  EXPECT_EQ(result.records[0].timestamp_ns, 100ull * 1'000'000'000 + 250'000'000);
  EXPECT_EQ(result.records[1].timestamp_ns, 101ull * 1'000'000'000 + 1'000);
  EXPECT_EQ(result.records[0].link_type, datapath::kLinkTypeEthernet);
  EXPECT_EQ(result.records[0].bytes.size(), frame_a.size());
  EXPECT_EQ(reader.stats().records, 2u);

  ParsedPacket parsed;
  ASSERT_EQ(parse_packet(result.records[0], parsed), ParseOutcome::kOk);
  EXPECT_EQ(parsed.tuple.src_ip, 0x0a000001u);
  EXPECT_EQ(parsed.tuple.dst_ip, 0x0a000002u);
  EXPECT_EQ(parsed.tuple.src_port, 1234);
  EXPECT_EQ(parsed.tuple.dst_port, 80);
  EXPECT_EQ(parsed.tuple.protocol, 6);
  EXPECT_EQ(parsed.ip_version, 4);
  EXPECT_EQ(parsed.tuple.source_key(), flow::FlowKey{0x0a000001});
}

TEST_P(ClassicEndianness, NanosecondMagicKeepsFullResolution) {
  const bool be = GetParam();
  Bytes capture = classic_header(be, /*nano=*/true);
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  classic_record(capture, be, 7, 999'999'999, frame);

  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].timestamp_ns, 7ull * 1'000'000'000 + 999'999'999);
}

INSTANTIATE_TEST_SUITE_P(BothOrders, ClassicEndianness,
                         ::testing::Values(false, true));

TEST(ClassicReader, SlicedCaptureReportsOriginalLength) {
  const bool be = false;
  Bytes capture = classic_header(be, false);
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  // Slice the frame to 32 captured bytes of a 1500-byte original.
  classic_record(capture, be, 1, 0, as_span(frame).subspan(0, 32), 32, 1500);
  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].bytes.size(), 32u);
  EXPECT_EQ(result.records[0].original_length, 1500u);
}

// --- pcapng happy paths -----------------------------------------------------

class PcapngEndianness : public ::testing::TestWithParam<bool> {};

TEST_P(PcapngEndianness, EnhancedPacketsRoundTrip) {
  const bool be = GetParam();
  Bytes capture = shb(be);
  append(capture, idb(be));
  const Bytes frame_a = tcp4_frame(0xc0a80001, 0xc0a80002, 55555, 53);
  const Bytes frame_b = tcp4_frame(0xc0a80003, 0xc0a80004, 1, 2);
  // Default resolution is microseconds: ticks are usec.
  append(capture, epb(be, 0, 5'000'123, frame_a));
  append(capture, epb(be, 0, 5'000'124, frame_b));

  PcapReader reader(capture);
  EXPECT_TRUE(reader.is_pcapng());
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.end, RecordOutcome::kEndOfCapture);
  EXPECT_EQ(reader.big_endian(), be);
  EXPECT_EQ(result.records[0].timestamp_ns, 5'000'123ull * 1'000);
  EXPECT_EQ(result.records[0].link_type, datapath::kLinkTypeEthernet);

  ParsedPacket parsed;
  ASSERT_EQ(parse_packet(result.records[0], parsed), ParseOutcome::kOk);
  EXPECT_EQ(parsed.tuple.src_ip, 0xc0a80001u);
  EXPECT_EQ(parsed.tuple.dst_port, 53);
}

INSTANTIATE_TEST_SUITE_P(BothOrders, PcapngEndianness,
                         ::testing::Values(false, true));

TEST(PcapngReader, TsresolOptionsControlTimestampScale) {
  const bool be = false;
  // Power-of-ten nanoseconds (value 9) and power-of-two (2^-10 seconds).
  Bytes capture = shb(be);
  append(capture, idb(be, datapath::kLinkTypeEthernet, 0, /*tsresol=*/9));
  append(capture, idb(be, datapath::kLinkTypeEthernet, 0, /*tsresol=*/0x80 | 10));
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  append(capture, epb(be, 0, 1'234'567'890, frame));  // already nanoseconds
  append(capture, epb(be, 1, 1024, frame));           // 1024 ticks = 1 second

  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].timestamp_ns, 1'234'567'890u);
  EXPECT_EQ(result.records[1].timestamp_ns, 1'000'000'000u);
}

TEST(PcapngReader, SimplePacketBlockUsesInterfaceZero) {
  const bool be = false;
  Bytes capture = shb(be);
  append(capture, idb(be, datapath::kLinkTypeEthernet, /*snaplen=*/0));
  const Bytes frame = tcp4_frame(9, 8, 7, 6);
  append(capture, spb(be, static_cast<std::uint32_t>(frame.size()), frame));

  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].bytes.size(), frame.size());
  EXPECT_EQ(result.records[0].original_length, frame.size());
  EXPECT_EQ(result.records[0].timestamp_ns, 0u);  // SPBs carry no timestamp

  ParsedPacket parsed;
  ASSERT_EQ(parse_packet(result.records[0], parsed), ParseOutcome::kOk);
  EXPECT_EQ(parsed.tuple.src_ip, 9u);
}

TEST(PcapngReader, SimplePacketBlockClampsToInterfaceSnaplen) {
  const bool be = false;
  Bytes capture = shb(be);
  append(capture, idb(be, datapath::kLinkTypeEthernet, /*snaplen=*/16));
  const Bytes frame = tcp4_frame(9, 8, 7, 6);
  append(capture, spb(be, static_cast<std::uint32_t>(frame.size()), frame));
  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].bytes.size(), 16u);
  EXPECT_EQ(result.records[0].original_length, frame.size());
}

TEST(PcapngReader, MultipleInterfacesCarryTheirOwnLinkTypes) {
  const bool be = true;
  Bytes capture = shb(be);
  append(capture, idb(be, datapath::kLinkTypeEthernet));
  append(capture, idb(be, datapath::kLinkTypeRawIp));
  const Bytes eth = tcp4_frame(1, 2, 3, 4);
  const Bytes raw = ipv4_packet(5, 6, 6, tcp_header(7, 8));
  append(capture, epb(be, 1, 0, raw));
  append(capture, epb(be, 0, 0, eth));

  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].link_type, datapath::kLinkTypeRawIp);
  EXPECT_EQ(result.records[1].link_type, datapath::kLinkTypeEthernet);
  ParsedPacket parsed;
  ASSERT_EQ(parse_packet(result.records[0], parsed), ParseOutcome::kOk);
  EXPECT_EQ(parsed.tuple.src_ip, 5u);
}

TEST(PcapngReader, UnknownBlocksAreSkippedAndCounted) {
  const bool be = false;
  Bytes capture = shb(be);
  append(capture, idb(be));
  // A Name Resolution Block (type 4) the reader has no use for.
  Bytes nrb;
  put32(nrb, 4, be);
  put32(nrb, 16, be);
  put32(nrb, 0, be);
  put32(nrb, 16, be);
  append(capture, nrb);
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  append(capture, epb(be, 0, 0, frame));

  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(reader.stats().blocks_skipped, 1u);
}

TEST(PcapngReader, NewSectionResetsInterfaceScope) {
  const bool be = false;
  Bytes capture = shb(be);
  append(capture, idb(be));
  append(capture, idb(be));
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  append(capture, epb(be, 1, 0, frame));  // valid: two interfaces in section 1
  append(capture, shb(be));               // new section: IDs reset
  append(capture, idb(be));
  append(capture, epb(be, 1, 0, frame));  // dangling ID in section 2
  append(capture, epb(be, 0, 0, frame));  // valid again

  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_EQ(reader.stats().malformed_skipped, 1u);
}

// --- ByteCursor fixed-width views --------------------------------------------

Bytes counting_bytes(std::size_t count) {
  Bytes out;
  for (std::size_t i = 0; i < count; ++i) put8(out, static_cast<std::uint8_t>(i + 1));
  return out;
}

TEST(ByteCursor, FixedViewsSucceedAtExactlyTheirWidth) {
  const Bytes buffer = counting_bytes(20);
  ByteCursor cursor(buffer);
  const auto peeked = cursor.peek<20>();
  EXPECT_EQ(cursor.offset(), 0u);
  EXPECT_EQ(peeked.u8<19>(), 20);
  const auto header = cursor.take<20>();
  EXPECT_EQ(cursor.offset(), 20u);
  EXPECT_EQ(cursor.remaining(), 0u);
  EXPECT_EQ(header.u8<0>(), 1);
  EXPECT_EQ(header.u16be<2>(), 0x0304);
  EXPECT_EQ(header.u16le<2>(), 0x0403);
  EXPECT_EQ(header.u16<2>(true), 0x0304);
  EXPECT_EQ(header.u16<2>(false), 0x0403);
  EXPECT_EQ(header.u32be<16>(), 0x11121314u);
  EXPECT_EQ(header.u32le<16>(), 0x14131211u);
  EXPECT_EQ(header.u32<16>(true), 0x11121314u);
  EXPECT_EQ(header.u32<16>(false), 0x14131211u);
}

TEST(ByteCursor, FixedViewsOneByteShortThrowAndStayPut) {
  const Bytes buffer = counting_bytes(23);
  ByteCursor cursor(buffer);
  cursor.skip(4);  // 19 bytes left
  EXPECT_THROW(cursor.take<20>(), common::ContractViolation);
  EXPECT_EQ(cursor.offset(), 4u);
  EXPECT_THROW(cursor.peek<20>(), common::ContractViolation);
  EXPECT_EQ(cursor.offset(), 4u);
  EXPECT_EQ(cursor.take<19>().u8<0>(), 5);  // the cursor is still usable
}

TEST(ByteCursor, PeekNeverAdvances) {
  const Bytes buffer = counting_bytes(8);
  ByteCursor cursor(buffer);
  cursor.skip(2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cursor.peek<4>().u32be<0>(), 0x03040506u);
    EXPECT_EQ(cursor.peek<1>().u8<0>(), 3);
    EXPECT_EQ(cursor.offset(), 2u);
  }
  EXPECT_EQ(cursor.take<4>().u32be<0>(), 0x03040506u);
  EXPECT_EQ(cursor.offset(), 6u);
}

TEST(ByteCursor, LittleEndianReadsAssembleKnownBytes) {
  const Bytes buffer = counting_bytes(16);  // 01 02 ... 10
  ByteCursor cursor(buffer);
  EXPECT_EQ(cursor.u16le(), 0x0201u);
  EXPECT_EQ(cursor.u32le(), 0x06050403u);
  EXPECT_EQ(cursor.offset(), 6u);
  EXPECT_EQ(cursor.u64le(), 0x0e0d0c0b0a090807ull);
  EXPECT_EQ(cursor.offset(), 14u);
  EXPECT_EQ(cursor.peek<2>().u16le<0>(), 0x100fu);
  Bytes high;  // every byte has its top bit set
  for (const std::uint8_t b : {0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88}) {
    put8(high, b);
  }
  EXPECT_EQ(ByteCursor(high).u64le(), 0x8899aabbccddeeffull);
  EXPECT_EQ(ByteCursor(high).u32le(), 0xccddeeffu);
}

TEST(ByteCursor, LittleEndianReadsOneByteShortThrowAndStayPut) {
  const Bytes buffer = counting_bytes(10);
  ByteCursor cursor(buffer);
  cursor.skip(3);  // 7 bytes left
  EXPECT_THROW(cursor.u64le(), common::ContractViolation);
  EXPECT_EQ(cursor.offset(), 3u);
  cursor.skip(4);  // 3 bytes left
  EXPECT_THROW(cursor.u32le(), common::ContractViolation);
  EXPECT_EQ(cursor.offset(), 7u);
  EXPECT_EQ(cursor.u16le(), 0x0908u);  // the cursor is still usable
  EXPECT_THROW(cursor.u16le(), common::ContractViolation);
  EXPECT_EQ(cursor.offset(), 9u);
}

// --- parser decode matrix ---------------------------------------------------

RawRecord record_of(const Bytes& frame,
                    std::uint32_t link_type = datapath::kLinkTypeEthernet) {
  RawRecord record;
  record.bytes = frame;
  record.original_length = static_cast<std::uint32_t>(frame.size());
  record.link_type = link_type;
  return record;
}

TEST(PacketParser, VlanTagsUpToFourDeepAreUnwrapped) {
  for (int tags = 0; tags <= 4; ++tags) {
    const Bytes tcp = tcp_header(10, 20);
    const Bytes frame =
        ethernet_frame(0x0800, ipv4_packet(111, 222, 6, tcp), tags);
    ParsedPacket parsed;
    ASSERT_EQ(parse_packet(record_of(frame), parsed), ParseOutcome::kOk)
        << tags << " tags";
    EXPECT_EQ(parsed.tuple.src_ip, 111u);
    EXPECT_EQ(parsed.tuple.dst_port, 20);
  }
}

TEST(PacketParser, FiveVlanTagsIsATagBomb) {
  const Bytes tcp = tcp_header(10, 20);
  const Bytes frame = ethernet_frame(0x0800, ipv4_packet(1, 2, 6, tcp), 5);
  ParsedPacket parsed;
  EXPECT_EQ(parse_packet(record_of(frame), parsed), ParseOutcome::kBadIpHeader);
}

TEST(PacketParser, Ipv6UdpParsesThroughExtensionHeaders) {
  // hop-by-hop (8 bytes) -> destination options (8 bytes) -> UDP.
  Bytes extensions;
  put8(extensions, 60);  // next: destination options
  put8(extensions, 0);   // length 0 -> 8 bytes
  for (int i = 0; i < 6; ++i) put8(extensions, 0);
  put8(extensions, 17);  // next: UDP
  put8(extensions, 0);
  for (int i = 0; i < 6; ++i) put8(extensions, 0);
  append(extensions, udp_header(6000, 7000, 12));
  const Bytes frame = ethernet_frame(0x86DD, ipv6_packet(0, extensions, 0xaa, 0xbb));
  ParsedPacket parsed;
  ASSERT_EQ(parse_packet(record_of(frame), parsed), ParseOutcome::kOk);
  EXPECT_EQ(parsed.ip_version, 6);
  EXPECT_EQ(parsed.tuple.protocol, 17);
  EXPECT_EQ(parsed.tuple.src_port, 6000);
  EXPECT_EQ(parsed.tuple.dst_port, 7000);
  EXPECT_NE(parsed.tuple.src_ip, 0u);  // folded v6 addresses
  EXPECT_NE(parsed.tuple.src_ip, parsed.tuple.dst_ip);
}

TEST(PacketParser, Ipv6AddressFoldIsDeterministic) {
  const Bytes frame =
      ethernet_frame(0x86DD, ipv6_packet(17, udp_header(1, 2), 0x11, 0x22));
  ParsedPacket first;
  ParsedPacket second;
  ASSERT_EQ(parse_packet(record_of(frame), first), ParseOutcome::kOk);
  ASSERT_EQ(parse_packet(record_of(frame), second), ParseOutcome::kOk);
  EXPECT_EQ(first.tuple, second.tuple);
}

TEST(PacketParser, IcmpKeysOnAddressesAlone) {
  Bytes icmp;
  put8(icmp, 8);  // echo request
  put8(icmp, 0);
  put16(icmp, 0, true);
  const Bytes frame = ethernet_frame(0x0800, ipv4_packet(10, 20, 1, icmp));
  ParsedPacket parsed;
  ASSERT_EQ(parse_packet(record_of(frame), parsed), ParseOutcome::kOk);
  EXPECT_EQ(parsed.tuple.protocol, 1);
  EXPECT_EQ(parsed.tuple.src_port, 0);
  EXPECT_EQ(parsed.tuple.dst_port, 0);
}

TEST(PacketParser, ArpIsUnsupportedEtherTypeNotAnError) {
  Bytes arp(28, std::byte{0});
  const Bytes frame = ethernet_frame(0x0806, arp);
  ParsedPacket parsed;
  EXPECT_EQ(parse_packet(record_of(frame), parsed),
            ParseOutcome::kUnsupportedEtherType);
}

TEST(PacketParser, RawIpLinkTypeSniffsTheVersionNibble) {
  const Bytes v4 = ipv4_packet(1, 2, 6, tcp_header(3, 4));
  const Bytes v6 = ipv6_packet(17, udp_header(5, 6));
  ParsedPacket parsed;
  ASSERT_EQ(parse_packet(record_of(v4, datapath::kLinkTypeRawIp), parsed),
            ParseOutcome::kOk);
  EXPECT_EQ(parsed.ip_version, 4);
  ASSERT_EQ(parse_packet(record_of(v6, datapath::kLinkTypeRawIp), parsed),
            ParseOutcome::kOk);
  EXPECT_EQ(parsed.ip_version, 6);
  Bytes junk;
  put8(junk, 0x90);  // version nibble 9
  EXPECT_EQ(parse_packet(record_of(junk, datapath::kLinkTypeRawIp), parsed),
            ParseOutcome::kBadIpHeader);
}

TEST(PacketParser, NullLinkTypeAcceptsEitherFamilyByteOrder) {
  for (const bool swapped : {false, true}) {
    Bytes frame;
    put32(frame, 2, swapped);  // AF_INET in the capturing host's order
    append(frame, ipv4_packet(77, 88, 6, tcp_header(1, 2)));
    ParsedPacket parsed;
    ASSERT_EQ(parse_packet(record_of(frame, datapath::kLinkTypeNull), parsed),
              ParseOutcome::kOk)
        << (swapped ? "swapped" : "native");
    EXPECT_EQ(parsed.tuple.src_ip, 77u);
  }
}

TEST(PacketParser, UnknownLinkTypeIsTyped) {
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  ParsedPacket parsed;
  EXPECT_EQ(parse_packet(record_of(frame, 147), parsed),
            ParseOutcome::kUnsupportedLinkType);
}

TEST(PacketParser, NonFirstFragmentKeysOnAddresses) {
  Ipv4Options options;
  options.fragment = 0x0010;  // offset 16 (x8 bytes), no flags
  Bytes payload(16, std::byte{0});
  const Bytes frame = ethernet_frame(0x0800, ipv4_packet(5, 6, 6, payload, options));
  ParsedPacket parsed;
  ASSERT_EQ(parse_packet(record_of(frame), parsed), ParseOutcome::kOk);
  EXPECT_EQ(parsed.tuple.src_port, 0);
  EXPECT_EQ(parsed.tuple.dst_port, 0);
  EXPECT_EQ(parsed.tuple.protocol, 6);
}

// --- crafted-header battery -------------------------------------------------

TEST(PacketParser, ZeroAndShortIhlAreRejected) {
  for (const std::uint8_t ihl : {0, 1, 4}) {
    Ipv4Options options;
    options.ihl_words = ihl;
    const Bytes frame =
        ethernet_frame(0x0800, ipv4_packet(1, 2, 6, tcp_header(3, 4), options));
    ParsedPacket parsed;
    EXPECT_EQ(parse_packet(record_of(frame), parsed), ParseOutcome::kBadIpHeader)
        << "ihl " << int{ihl};
  }
}

TEST(PacketParser, OverlappingTotalLengthIsRejected) {
  // total_length (12) < header length (20): payload would overlap the header.
  Ipv4Options options;
  options.total_length = 12;
  const Bytes frame =
      ethernet_frame(0x0800, ipv4_packet(1, 2, 6, tcp_header(3, 4), options));
  ParsedPacket parsed;
  EXPECT_EQ(parse_packet(record_of(frame), parsed), ParseOutcome::kBadIpHeader);
}

TEST(PacketParser, VersionMismatchIsRejected) {
  Ipv4Options options;
  options.version = 5;
  const Bytes frame =
      ethernet_frame(0x0800, ipv4_packet(1, 2, 6, tcp_header(3, 4), options));
  ParsedPacket parsed;
  EXPECT_EQ(parse_packet(record_of(frame), parsed), ParseOutcome::kBadIpHeader);
}

TEST(PacketParser, BadTransportHeadersAreTyped) {
  // TCP data offset below the 20-byte minimum.
  const Bytes bad_tcp = tcp_header(1, 2, /*data_offset_words=*/4);
  const Bytes tcp_frame = ethernet_frame(0x0800, ipv4_packet(1, 2, 6, bad_tcp));
  ParsedPacket parsed;
  EXPECT_EQ(parse_packet(record_of(tcp_frame), parsed),
            ParseOutcome::kBadTransportHeader);
  // UDP length field below the 8-byte header minimum.
  const Bytes bad_udp = udp_header(1, 2, /*udp_length=*/4);
  const Bytes udp_frame = ethernet_frame(0x0800, ipv4_packet(1, 2, 17, bad_udp));
  EXPECT_EQ(parse_packet(record_of(udp_frame), parsed),
            ParseOutcome::kBadTransportHeader);
}

// One frame of the exact-outcome truncation sweep. A prefix shorter than
// `cuts[i].first` bytes (and at least every earlier cut) parses to
// `cuts[i].second`; a prefix at or past the last cut parses kOk with `tuple`.
struct PrefixCase {
  const char* name;
  Bytes frame;
  std::uint32_t link_type;
  std::vector<std::pair<std::size_t, ParseOutcome>> cuts;
  flow::FiveTuple tuple;
  std::uint8_t ip_version;
};

std::vector<PrefixCase> prefix_cases() {
  using enum ParseOutcome;
  // hop-by-hop (8 bytes, next: fragment) -> fragment (first, M set) -> TCP.
  Bytes v6_extensions;
  put8(v6_extensions, 44);
  put8(v6_extensions, 0);
  for (int i = 0; i < 6; ++i) put8(v6_extensions, 0);
  put8(v6_extensions, 6);
  put8(v6_extensions, 0);
  put16(v6_extensions, 0x0001, true);  // offset 0, more fragments
  put32(v6_extensions, 0xdeadbeef, true);
  append(v6_extensions, tcp_header(7, 8));

  Ipv4Options with_options;
  with_options.ihl_words = 6;
  Ipv4Options later_fragment;
  later_fragment.fragment = 0x0010;

  Bytes null_le;
  put32(null_le, 2, false);  // AF_INET, little-endian host
  append(null_le, ipv4_packet(77, 88, 6, tcp_header(1, 2)));
  Bytes null_be;
  put32(null_be, 2, true);  // AF_INET, big-endian host
  append(null_be, ipv4_packet(77, 88, 17, udp_header(3, 4)));
  Bytes loop_be;
  put32(loop_be, 30, true);  // AF_INET6 (Darwin), big-endian host
  append(loop_be, ipv6_packet(17, udp_header(5, 6), 0x11, 0x22));

  // The IPv6 addresses are 2020..20xx; their 32-bit folds are pinned.
  constexpr std::uint32_t kFoldAa = 0x48652f71;
  constexpr std::uint32_t kFoldBb = 0xe7dcc399;
  constexpr std::uint32_t kFold11 = 0x61236d35;
  constexpr std::uint32_t kFold22 = 0x7880f076;
  constexpr std::uint32_t kEthernet = datapath::kLinkTypeEthernet;

  return {
      {"tcp4", tcp4_frame(1, 2, 3, 4), kEthernet,
       {{14, kTruncatedLink}, {34, kTruncatedIp}, {54, kTruncatedTransport}},
       {1, 2, 3, 4, 6}, 4},
      {"udp4", ethernet_frame(0x0800, ipv4_packet(1, 2, 17, udp_header(5, 6))),
       kEthernet,
       {{14, kTruncatedLink}, {34, kTruncatedIp}, {42, kTruncatedTransport}},
       {1, 2, 5, 6, 17}, 4},
      {"vlan1-tcp4",
       ethernet_frame(0x0800, ipv4_packet(9, 10, 6, tcp_header(11, 12)), 1),
       kEthernet,
       {{18, kTruncatedLink}, {38, kTruncatedIp}, {58, kTruncatedTransport}},
       {9, 10, 11, 12, 6}, 4},
      {"vlan2-udp4",
       ethernet_frame(0x0800, ipv4_packet(1, 2, 17, udp_header(5, 6)), 2),
       kEthernet,
       {{22, kTruncatedLink}, {42, kTruncatedIp}, {50, kTruncatedTransport}},
       {1, 2, 5, 6, 17}, 4},
      {"ipv4-options",
       ethernet_frame(0x0800,
                      ipv4_packet(3, 4, 6, tcp_header(5, 6), with_options)),
       kEthernet,
       {{14, kTruncatedLink}, {38, kTruncatedIp}, {58, kTruncatedTransport}},
       {3, 4, 5, 6, 6}, 4},
      {"ipv4-later-fragment",
       ethernet_frame(0x0800, ipv4_packet(5, 6, 6, Bytes(16, std::byte{0}),
                                          later_fragment)),
       kEthernet, {{14, kTruncatedLink}, {34, kTruncatedIp}},
       {5, 6, 0, 0, 6}, 4},
      {"ipv6-hop-by-hop-fragment",
       ethernet_frame(0x86DD, ipv6_packet(0, v6_extensions, 0xaa, 0xbb)),
       kEthernet,
       {{14, kTruncatedLink}, {70, kTruncatedIp}, {90, kTruncatedTransport}},
       {kFoldAa, kFoldBb, 7, 8, 6}, 6},
      {"raw-ipv4", ipv4_packet(1, 2, 6, tcp_header(3, 4)),
       datapath::kLinkTypeRawIp,
       {{20, kTruncatedIp}, {40, kTruncatedTransport}}, {1, 2, 3, 4, 6}, 4},
      {"raw-ipv6", ipv6_packet(17, udp_header(5, 6), 0x11, 0x22),
       datapath::kLinkTypeRawIp,
       {{40, kTruncatedIp}, {48, kTruncatedTransport}},
       {kFold11, kFold22, 5, 6, 17}, 6},
      {"null-le-tcp4", null_le, datapath::kLinkTypeNull,
       {{4, kTruncatedLink}, {24, kTruncatedIp}, {44, kTruncatedTransport}},
       {77, 88, 1, 2, 6}, 4},
      {"null-be-udp4", null_be, datapath::kLinkTypeNull,
       {{4, kTruncatedLink}, {24, kTruncatedIp}, {32, kTruncatedTransport}},
       {77, 88, 3, 4, 17}, 4},
      {"loop-be-udp6", loop_be, datapath::kLinkTypeLoop,
       {{4, kTruncatedLink}, {44, kTruncatedIp}, {52, kTruncatedTransport}},
       {kFold11, kFold22, 5, 6, 17}, 6},
  };
}

TEST(PacketParser, EveryPrefixOfAGoodFrameIsHandled) {
  // The truncation sweep pins the exact outcome of every prefix, and the
  // exact tuple of every prefix that parses. Runs under ASan/UBSan in CI.
  for (const PrefixCase& c : prefix_cases()) {
    for (std::size_t length = 0; length <= c.frame.size(); ++length) {
      ParseOutcome expected = ParseOutcome::kOk;
      for (const auto& [end, outcome] : c.cuts) {
        if (length < end) {
          expected = outcome;
          break;
        }
      }
      RawRecord record;
      record.bytes = std::span<const std::byte>(c.frame).subspan(0, length);
      record.original_length = static_cast<std::uint32_t>(c.frame.size());
      record.link_type = c.link_type;
      ParsedPacket parsed;
      ASSERT_EQ(parse_packet(record, parsed), expected)
          << c.name << " cut to " << length << " of " << c.frame.size();
      if (expected == ParseOutcome::kOk) {
        EXPECT_EQ(parsed.tuple, c.tuple) << c.name << " cut to " << length;
        EXPECT_EQ(parsed.ip_version, c.ip_version) << c.name;
      }
    }
  }
}

// --- hostile capture battery ------------------------------------------------

TEST(HostileCapture, UnrecognizedMagicThrows) {
  Bytes capture;
  put32(capture, 0xdeadbeef, false);
  for (int i = 0; i < 20; ++i) put8(capture, 0);
  EXPECT_THROW(PcapReader{as_span(capture)}, PcapError);
}

TEST(HostileCapture, UnsupportedVersionThrows) {
  Bytes capture = classic_header(false, false);
  capture[4] = std::byte{3};  // version_major 3
  EXPECT_THROW(PcapReader{as_span(capture)}, PcapError);
}

TEST(HostileCapture, AbsurdSnaplenThrows) {
  Bytes capture = classic_header(false, false, /*snaplen=*/0x7fffffff);
  EXPECT_THROW(PcapReader{as_span(capture)}, PcapError);
}

TEST(HostileCapture, AbsurdCaplenIsTerminal) {
  const bool be = false;
  Bytes capture = classic_header(be, false, /*snaplen=*/0);
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  classic_record(capture, be, 1, 0, frame);
  // Record header claiming a 1 GiB body: the stream cannot be resynced.
  put32(capture, 2, be);
  put32(capture, 0, be);
  put32(capture, 1u << 30, be);
  put32(capture, 1u << 30, be);
  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.end, RecordOutcome::kMalformedTerminal);
  EXPECT_EQ(reader.stats().malformed_terminal, 1u);
}

TEST(HostileCapture, CaplenBeyondSnaplenSkipsAndResyncs) {
  const bool be = false;
  Bytes capture = classic_header(be, false, /*snaplen=*/64);
  Bytes oversized(100, std::byte{0xee});
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  classic_record(capture, be, 1, 0, oversized);  // caplen 100 > snaplen 64
  classic_record(capture, be, 2, 0, frame);
  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].timestamp_ns, 2ull * 1'000'000'000);
  EXPECT_EQ(reader.stats().malformed_skipped, 1u);
}

TEST(HostileCapture, ImpossibleSubsecondSkipsRecord) {
  const bool be = false;
  Bytes capture = classic_header(be, false);
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  classic_record(capture, be, 1, 1'000'000, frame);  // usec field >= 10^6
  classic_record(capture, be, 2, 0, frame);
  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(reader.stats().malformed_skipped, 1u);
}

TEST(HostileCapture, OriginalShorterThanCapturedSkipsRecord) {
  const bool be = false;
  Bytes capture = classic_header(be, false);
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  classic_record(capture, be, 1, 0, frame,
                 static_cast<std::uint32_t>(frame.size()),
                 static_cast<std::uint32_t>(frame.size() - 1));
  classic_record(capture, be, 2, 0, frame);
  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(reader.stats().malformed_skipped, 1u);
}

TEST(HostileCapture, PcapngBadByteOrderMagicIsTerminal) {
  Bytes capture = shb(false);
  capture[8] = std::byte{0xff};  // corrupt the BOM
  PcapReader reader(capture);
  RawRecord record;
  EXPECT_EQ(reader.next(record), RecordOutcome::kMalformedTerminal);
}

TEST(HostileCapture, PcapngBadBlockLengthsAreTerminal) {
  // Unaligned, below-minimum, and absurd total_length values.
  for (const std::uint32_t bad_length : {30u, 8u, (1u << 27)}) {
    Bytes capture = shb(false);
    append(capture, idb(false));
    // A full 12-byte block head (the reader peeks 12 before validating), with
    // a total_length that is unaligned / below minimum / absurd.
    Bytes block;
    put32(block, 6, false);
    put32(block, bad_length, false);
    put32(block, 0, false);
    append(capture, block);
    PcapReader reader(capture);
    const ReadResult result = read_all(reader);
    EXPECT_EQ(result.end, RecordOutcome::kMalformedTerminal) << bad_length;
  }
}

TEST(HostileCapture, PcapngTrailingLengthMismatchIsTerminal) {
  Bytes capture = shb(false);
  append(capture, idb(false));
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  Bytes block = epb(false, 0, 0, frame);
  // Corrupt the trailing copy of total_length.
  block[block.size() - 1] = std::byte{0x77};
  append(capture, block);
  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  EXPECT_EQ(result.records.size(), 0u);
  EXPECT_EQ(result.end, RecordOutcome::kMalformedTerminal);
}

TEST(HostileCapture, PcapngEpbClaimsMoreThanItsBlockHolds) {
  const bool be = false;
  Bytes capture = shb(be);
  append(capture, idb(be));
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  // caplen says 4096 but the block body only carries the frame: skipped, and
  // the well-formed EPB after it is still delivered (length-delimited resync).
  append(capture, epb(be, 0, 0, frame, 4096, 4096));
  append(capture, epb(be, 0, 0, frame));
  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(reader.stats().malformed_skipped, 1u);
}

TEST(HostileCapture, PcapngEpbBeforeAnyInterfaceIsSkipped) {
  const bool be = false;
  Bytes capture = shb(be);
  const Bytes frame = tcp4_frame(1, 2, 3, 4);
  append(capture, epb(be, 0, 0, frame));  // no IDB yet
  append(capture, idb(be));
  append(capture, epb(be, 0, 0, frame));
  PcapReader reader(capture);
  const ReadResult result = read_all(reader);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(reader.stats().malformed_skipped, 1u);
}

// Builds a well-formed multi-packet capture of each container flavor for the
// sweep/fuzz batteries below.
Bytes good_classic_capture(bool be) {
  Bytes capture = classic_header(be, false);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const Bytes frame = tcp4_frame(100 + i, 200 + i, 1000, 2000);
    classic_record(capture, be, i, i * 100, frame);
  }
  return capture;
}

Bytes good_pcapng_capture(bool be) {
  Bytes capture = shb(be);
  append(capture, idb(be, datapath::kLinkTypeEthernet, 0, /*tsresol=*/9));
  for (std::uint32_t i = 0; i < 4; ++i) {
    const Bytes frame = tcp4_frame(300 + i, 400 + i, 5000, 6000);
    append(capture, epb(be, 0, i * 1'000'000'000ull, frame));
  }
  return capture;
}

// Chunk sizes the refill loop is driven at, besides the whole span: every
// record header, record body and pcapng block gets cut at many offsets.
constexpr std::size_t kBatteryChunkSizes[] = {1, 2, 3, 5, 16, 61};

// The decode every pipelined one must reproduce: one PcapReader over the
// whole span (so it never refills) and parse_packet per record, on this
// thread. It shares no chunk edge, buffer or ring with decode_capture.
DecodedCapture reference_decode(std::span<const std::byte> data) {
  DecodedCapture decoded;
  PcapReader reader(data);
  RawRecord record;
  ParsedPacket parsed;
  RecordOutcome outcome;
  while ((outcome = reader.next(record)) == RecordOutcome::kRecord) {
    const ParseOutcome result = datapath::parse_packet(record, parsed);
    ++decoded.stats.parse_outcomes[static_cast<std::size_t>(result)];
    if (result != ParseOutcome::kOk) continue;
    ++decoded.stats.parsed;
    decoded.trace.append(flow::Packet{parsed.tuple.source_key(),
                                      parsed.wire_bytes, parsed.timestamp_ns});
  }
  decoded.stats.capture_end = outcome;
  decoded.stats.capture = reader.stats();
  return decoded;
}

// A chunked decode must match the whole-buffer decode packet for packet and
// ledger field for ledger field.
void expect_same_decode(const DecodedCapture& whole,
                        const DecodedCapture& chunked, std::size_t chunk) {
  const std::span<const flow::Packet> expected = whole.trace.packets();
  const std::span<const flow::Packet> actual = chunked.trace.packets();
  ASSERT_EQ(actual.size(), expected.size()) << "chunk " << chunk;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "chunk " << chunk << " packet " << i);
    ASSERT_EQ(actual[i].key, expected[i].key);
    ASSERT_EQ(actual[i].bytes, expected[i].bytes);
    ASSERT_EQ(actual[i].timestamp_ns, expected[i].timestamp_ns);
  }
  const datapath::DecodeStats& want = whole.stats;
  const datapath::DecodeStats& got = chunked.stats;
  EXPECT_EQ(got.capture_end, want.capture_end) << "chunk " << chunk;
  EXPECT_EQ(got.capture.records, want.capture.records) << "chunk " << chunk;
  EXPECT_EQ(got.capture.truncated, want.capture.truncated) << "chunk " << chunk;
  EXPECT_EQ(got.capture.malformed_skipped, want.capture.malformed_skipped)
      << "chunk " << chunk;
  EXPECT_EQ(got.capture.malformed_terminal, want.capture.malformed_terminal)
      << "chunk " << chunk;
  EXPECT_EQ(got.capture.blocks_skipped, want.capture.blocks_skipped)
      << "chunk " << chunk;
  EXPECT_EQ(got.parsed, want.parsed) << "chunk " << chunk;
  EXPECT_EQ(got.parse_outcomes, want.parse_outcomes) << "chunk " << chunk;
}

// Runs the whole ingest pipeline over arbitrary bytes; the only acceptable
// escapes are PcapError (structural) and typed outcomes. decode_capture at
// its default chunk and at every battery chunk size must reproduce the
// whole-buffer reference, error message included. Returns how many packets
// decoded, so sweeps can assert monotone-ish behavior.
std::size_t ingest_survives(std::span<const std::byte> data) {
  DecodedCapture whole;
  try {
    whole = reference_decode(data);
  } catch (const PcapError& error) {
    // Structural rejection is a valid outcome for damaged input.
    try {
      datapath::decode_capture(data);
      ADD_FAILURE() << "decode_capture decoded what the whole buffer "
                    << "rejected: " << error.what();
    } catch (const PcapError& pipelined_error) {
      EXPECT_STREQ(pipelined_error.what(), error.what());
    }
    for (const std::size_t chunk : kBatteryChunkSizes) {
      try {
        datapath::decode_capture(data, chunk);
        ADD_FAILURE() << "chunk " << chunk << " decoded what the whole buffer "
                      << "rejected: " << error.what();
      } catch (const PcapError& chunked_error) {
        EXPECT_STREQ(chunked_error.what(), error.what()) << "chunk " << chunk;
      }
    }
    return 0;
  }
  const CaptureStats& stats = whole.stats.capture;
  // Ledger sanity: everything next() saw is accounted somewhere.
  EXPECT_EQ(stats.records, whole.stats.parsed + whole.stats.parse_failures());
  EXPECT_LE(stats.malformed_terminal, 1u);
  expect_same_decode(whole, datapath::decode_capture(data),
                     datapath::kCaptureChunkBytes);
  for (const std::size_t chunk : kBatteryChunkSizes) {
    expect_same_decode(whole, datapath::decode_capture(data, chunk), chunk);
  }
  return whole.trace.size();
}

TEST(HostileCapture, EmptyCaptureIsStructuralError) {
  const Bytes empty;
  EXPECT_THROW(PcapReader{as_span(empty)}, PcapError);
  EXPECT_THROW(datapath::decode_capture(empty, 1), PcapError);
  try {
    datapath::decode_capture(empty);
    ADD_FAILURE() << "empty span decoded";
  } catch (const PcapError& error) {
    EXPECT_STREQ(error.what(), "pcap: shorter than any magic");
  }
  const std::string path = testing::TempDir() + "fcm_test_pcap_empty.pcap";
  std::ofstream(path, std::ios::binary | std::ios::trunc).close();
  try {
    datapath::load_capture(path);
    ADD_FAILURE() << "zero-byte file decoded";
  } catch (const PcapError& error) {
    EXPECT_STREQ(error.what(), "pcap: shorter than any magic");
  }
  std::remove(path.c_str());
}

TEST(HostileCapture, EveryPrefixTruncationSweep) {
  for (const bool be : {false, true}) {
    for (const Bytes& capture :
         {good_classic_capture(be), good_pcapng_capture(be)}) {
      std::size_t max_decoded = 0;
      for (std::size_t length = 1; length <= capture.size(); ++length) {
        const std::size_t decoded = ingest_survives(
            std::span<const std::byte>(capture).subspan(0, length));
        EXPECT_LE(decoded, 4u);
        max_decoded = std::max(max_decoded, decoded);
      }
      // The full capture decodes everything; no prefix decodes more.
      EXPECT_EQ(max_decoded, 4u);
    }
  }
}

TEST(HostileCapture, SeededMutationFuzzNeverCrashes) {
  // Fuzz-lite: deterministic seeded corruption of well-formed captures —
  // byte flips, random truncation, and random splices — plus fully random
  // buffers. Every input must come out as typed outcomes with a consistent
  // ledger (checked inside ingest_survives), which ASan/UBSan then audits.
  common::Xoshiro256 rng(0xfcaf002d);
  const std::vector<Bytes> seeds = {
      good_classic_capture(false), good_classic_capture(true),
      good_pcapng_capture(false), good_pcapng_capture(true)};
  for (int round = 0; round < 400; ++round) {
    Bytes mutated = seeds[round % seeds.size()];
    const int flips = 1 + static_cast<int>(rng.next() % 8);
    for (int f = 0; f < flips; ++f) {
      const std::size_t position = rng.next() % mutated.size();
      mutated[position] = std::byte{static_cast<std::uint8_t>(rng.next())};
    }
    if (rng.next() % 4 == 0) {
      mutated.resize(1 + rng.next() % mutated.size());
    }
    if (rng.next() % 4 == 0) {
      const std::size_t splice = rng.next() % 64;
      for (std::size_t i = 0; i < splice; ++i) {
        put8(mutated, static_cast<std::uint8_t>(rng.next()));
      }
    }
    ingest_survives(mutated);
  }
  for (int round = 0; round < 100; ++round) {
    Bytes noise(1 + rng.next() % 512, std::byte{0});
    for (std::byte& b : noise) {
      b = std::byte{static_cast<std::uint8_t>(rng.next())};
    }
    ingest_survives(noise);
  }
}

// --- ingest glue ------------------------------------------------------------

TEST(CaptureIngest, DecodesToTraceWithWireLengths) {
  const bool be = false;
  Bytes capture = classic_header(be, false);
  const Bytes frame = tcp4_frame(0x0a000001, 0x0a000002, 1, 2);
  classic_record(capture, be, 1, 0, frame);
  // Sliced record (full headers captured, payload cut): trace packet bytes
  // must be the ORIGINAL wire length, not the captured length.
  classic_record(capture, be, 2, 0, frame,
                 static_cast<std::uint32_t>(frame.size()), 1500);
  // An ARP packet: counted as a parse failure, not a trace packet.
  Bytes arp(28, std::byte{0});
  const Bytes arp_frame = ethernet_frame(0x0806, arp);
  classic_record(capture, be, 3, 0, arp_frame);

  const DecodedCapture decoded = datapath::decode_capture(capture);
  ASSERT_EQ(decoded.trace.size(), 2u);
  EXPECT_EQ(decoded.stats.parsed, 2u);
  EXPECT_EQ(decoded.stats.capture.records, 3u);
  EXPECT_EQ(decoded.stats.parse_failures(), 1u);
  EXPECT_EQ(decoded.stats.parse_outcomes[static_cast<std::size_t>(
                ParseOutcome::kUnsupportedEtherType)],
            1u);
  EXPECT_EQ(decoded.trace.packets()[0].key, flow::FlowKey{0x0a000001});
  EXPECT_EQ(decoded.trace.packets()[0].bytes, frame.size());
  EXPECT_EQ(decoded.trace.packets()[1].bytes, 1500u);
  EXPECT_EQ(decoded.stats.capture_end, RecordOutcome::kEndOfCapture);
}

TEST(CaptureIngest, ExportMetricsPublishesTheLedger) {
  obs::MetricsRegistry registry;
  datapath::DecodeStats stats;
  stats.parsed = 10;
  stats.capture.truncated = 1;
  stats.capture.malformed_skipped = 2;
  stats.capture.malformed_terminal = 1;
  stats.parse_outcomes[static_cast<std::size_t>(
      ParseOutcome::kUnsupportedEtherType)] = 3;
  datapath::export_metrics(stats, &registry);
  EXPECT_EQ(registry.counter("fcm_datapath_packets_total").value(), 10u);
  EXPECT_EQ(registry.counter("fcm_datapath_capture_truncated_total").value(),
            1u);
  EXPECT_EQ(registry.counter("fcm_datapath_capture_malformed_total").value(),
            3u);
  EXPECT_EQ(registry
                .counter("fcm_datapath_parse_failures_total",
                         {{"outcome", "unsupported-ether-type"}})
                .value(),
            3u);
}

TEST(CaptureIngest, CommittedFixtureDecodesWithCleanLedger) {
  // The deterministic fixture from tools/make_pcap_fixture.py; the golden
  // accuracy bands over this same file live in test_golden_metrics.cpp.
  const DecodedCapture decoded =
      datapath::load_capture(std::string(FCM_TEST_DATA_DIR) + "/fixture.pcap");
  EXPECT_EQ(decoded.stats.capture_end, RecordOutcome::kEndOfCapture);
  EXPECT_GE(decoded.trace.size(), 1000u);
  EXPECT_EQ(decoded.stats.capture.records,
            decoded.stats.parsed + decoded.stats.parse_failures());
  // The generator plants a handful of deliberate non-IP frames.
  EXPECT_GT(decoded.stats.parse_failures(), 0u);
  EXPECT_LT(decoded.stats.parse_failures(), decoded.stats.parsed / 10);
}

// load_capture reads kCaptureChunkBytes at a time into kCaptureRingSlots
// buffers. The captures below are large enough that it refills mid-record,
// wraps the ring, or must grow a buffer for one block.
constexpr std::size_t kChunk = datapath::kCaptureChunkBytes;
constexpr std::size_t kRingBytes = kChunk * datapath::kCaptureRingSlots;
constexpr std::size_t kMiB = std::size_t{1} << 20;

// Writes `capture` to a temp file, loads it, and checks the result, and
// decode_capture's on the same bytes, against the whole-buffer reference.
DecodedCapture load_matches_decode(const Bytes& capture,
                                   const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(capture.data()),
             static_cast<std::streamsize>(capture.size()));
  DecodedCapture loaded = datapath::load_capture(path);
  std::remove(path.c_str());
  const DecodedCapture reference = reference_decode(capture);
  expect_same_decode(reference, loaded, kChunk);
  expect_same_decode(reference, datapath::decode_capture(capture), kChunk);
  return loaded;
}

// A TCP frame padded with `padding` payload bytes.
Bytes padded_frame(std::uint32_t src_ip, std::size_t padding) {
  Bytes frame = tcp4_frame(src_ip, 0x0a000002, 1000, 80);
  frame.resize(frame.size() + padding, std::byte{0xab});
  return frame;
}

TEST(CaptureIngest, LoadCaptureMatchesDecodeAcrossRefills) {
  const bool be = false;
  Bytes capture = classic_header(be, false);
  common::Xoshiro256 rng(0x5eed);
  std::uint32_t records = 0;
  // Four times the ring's bytes: the ring wraps, and the framer runs into a
  // full ring whenever it gets ahead of the parser.
  while (capture.size() < 4 * kRingBytes + kChunk / 2) {
    Bytes frame = padded_frame(records % 4096, rng.next() % 1400);
    // No record may end exactly on a chunk-multiple file offset, so one
    // straddles each of those edges.
    if ((capture.size() + 16 + frame.size()) % kChunk == 0) put8(frame, 0);
    classic_record(capture, be, records, records % 1'000'000, frame);
    ++records;
  }
  const DecodedCapture loaded =
      load_matches_decode(capture, "fcm_test_pcap_refill.pcap");
  EXPECT_EQ(loaded.stats.capture_end, RecordOutcome::kEndOfCapture);
  EXPECT_EQ(loaded.stats.capture.records, records);
  EXPECT_EQ(loaded.stats.parsed, records);
}

TEST(CaptureIngest, LoadCaptureStopsAtTerminalCaplenChunksIn) {
  // A caplen over kMaxCaptureLength several chunks into the capture ends
  // the framer while the parser still holds earlier blocks; the bytes after
  // it are never framed.
  const bool be = false;
  Bytes capture = classic_header(be, false, /*snaplen=*/0);
  std::uint32_t records = 0;
  while (capture.size() < 3 * kChunk + kChunk / 3) {
    classic_record(capture, be, records, 0, padded_frame(records, 300));
    ++records;
  }
  put32(capture, records, be);
  put32(capture, 0, be);
  put32(capture, 1u << 30, be);
  put32(capture, 1u << 30, be);
  for (std::uint32_t i = 0; i < 100; ++i) {
    classic_record(capture, be, i, 0, padded_frame(i, 300));
  }
  const DecodedCapture loaded =
      load_matches_decode(capture, "fcm_test_pcap_terminal.pcap");
  for (const std::size_t chunk : {std::size_t{61}, kChunk / 3, kChunk - 1}) {
    expect_same_decode(loaded, datapath::decode_capture(capture, chunk), chunk);
  }
  EXPECT_EQ(loaded.stats.capture_end, RecordOutcome::kMalformedTerminal);
  EXPECT_EQ(loaded.stats.capture.malformed_terminal, 1u);
  EXPECT_EQ(loaded.stats.capture.records, records);
  EXPECT_EQ(loaded.trace.size(), records);
  EXPECT_EQ(loaded.trace.packets().back().timestamp_ns,
            std::uint64_t{records - 1} * 1'000'000'000);
}

TEST(CaptureIngest, LoadCaptureSplitsAGrownBufferAcrossBlocks) {
  // A record four chunks long grows one buffer to eight chunks, which then
  // holds far more 16-byte records than one block takes: the framer
  // publishes full blocks and carries tails longer than a chunk.
  const bool be = false;
  Bytes capture = classic_header(be, false, /*snaplen=*/0);
  classic_record(capture, be, 0, 0, padded_frame(1, 4 * kChunk));
  const Bytes no_bytes;
  const std::uint32_t tiny = 6 * kChunk / 16;
  for (std::uint32_t i = 0; i < tiny; ++i) {
    classic_record(capture, be, i, 0, no_bytes, 0, 60);
  }
  classic_record(capture, be, 1, 0, padded_frame(2, 10));
  const DecodedCapture loaded =
      load_matches_decode(capture, "fcm_test_pcap_split.pcap");
  EXPECT_EQ(loaded.stats.capture_end, RecordOutcome::kEndOfCapture);
  EXPECT_EQ(loaded.stats.capture.records, tiny + 2);
  EXPECT_EQ(loaded.stats.parse_failures(), tiny);
  ASSERT_EQ(loaded.trace.size(), 2u);
  EXPECT_EQ(loaded.trace.packets()[1].key, flow::FlowKey{2});
}

TEST(CaptureIngest, LoadCaptureGrowsForBlockLargerThanBuffer) {
  const bool be = true;
  Bytes capture = shb(be);
  append(capture, idb(be, datapath::kLinkTypeEthernet, 0, /*tsresol=*/9));
  for (std::uint32_t i = 0; i < 100; ++i) {
    append(capture, epb(be, 0, i, padded_frame(i, 700)));
  }
  const Bytes jumbo = padded_frame(0x0a0000ff, kMiB + kMiB / 2);
  append(capture, epb(be, 0, 100, jumbo));
  for (std::uint32_t i = 101; i < 200; ++i) {
    append(capture, epb(be, 0, i, padded_frame(i, 700)));
  }
  const DecodedCapture loaded =
      load_matches_decode(capture, "fcm_test_pcap_jumbo.pcapng");
  EXPECT_EQ(loaded.stats.capture_end, RecordOutcome::kEndOfCapture);
  ASSERT_EQ(loaded.trace.size(), 200u);
  EXPECT_EQ(loaded.trace.packets()[100].bytes, jumbo.size());
}

TEST(CaptureIngest, LoadCaptureLyingCaplenEndsTruncated) {
  // The last record claims a 60 MiB body (under kMaxCaptureLength, so not
  // malformed) in a 200-byte file: the decode ends at EOF as truncated.
  const bool be = false;
  Bytes capture = classic_header(be, false, /*snaplen=*/0);
  classic_record(capture, be, 1, 0, tcp4_frame(1, 2, 3, 4));
  put32(capture, 2, be);
  put32(capture, 0, be);
  put32(capture, 60u << 20, be);
  put32(capture, 60u << 20, be);
  while (capture.size() < 200) put8(capture, 0x5a);
  ASSERT_EQ(capture.size(), 200u);
  const DecodedCapture loaded =
      load_matches_decode(capture, "fcm_test_pcap_lying.pcap");
  EXPECT_EQ(loaded.stats.capture_end, RecordOutcome::kTruncated);
  EXPECT_EQ(loaded.stats.capture.truncated, 1u);
  EXPECT_EQ(loaded.trace.size(), 1u);
}

TEST(CaptureIngest, LoadCaptureThrowsOnMissingFile) {
  EXPECT_THROW(datapath::load_capture("/nonexistent/no-such.pcap"),
               std::runtime_error);
}

TEST(CaptureIngest, LoadCaptureThrowsWhenReadFails) {
  // A directory opens read-only, but read() on it fails (on the first read,
  // before the parser thread starts).
  EXPECT_THROW(datapath::load_capture(testing::TempDir()), std::runtime_error);
}

TEST(CaptureIngest, PcapngFirstSectionErrorStopsTheRunningParser) {
  // The reader parses a pcapng capture's first SHB on its first next(), in
  // the framer after the parser thread started; its PcapError must end both
  // stages and reach the caller with the same text at every chunk size.
  for (const bool be : {false, true}) {
    Bytes capture = shb(be);
    Bytes major;
    put16(major, 2, be);
    std::copy(major.begin(), major.end(), capture.begin() + 12);
    append(capture, idb(be));
    while (capture.size() < 2 * kChunk) {
      append(capture, epb(be, 0, 0, padded_frame(1, 1000)));
    }
    std::vector<std::size_t> chunks(std::begin(kBatteryChunkSizes),
                                    std::end(kBatteryChunkSizes));
    chunks.push_back(kChunk);
    for (const std::size_t chunk : chunks) {
      try {
        datapath::decode_capture(capture, chunk);
        ADD_FAILURE() << "chunk " << chunk << " decoded a version-2 section";
      } catch (const PcapError& error) {
        EXPECT_STREQ(error.what(), "pcapng: unsupported major version")
            << "chunk " << chunk;
      }
    }
    const std::string path = testing::TempDir() + "fcm_test_pcap_v2.pcapng";
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(capture.data()),
               static_cast<std::streamsize>(capture.size()));
    try {
      datapath::load_capture(path);
      ADD_FAILURE() << "load_capture decoded a version-2 section";
    } catch (const PcapError& error) {
      EXPECT_STREQ(error.what(), "pcapng: unsupported major version");
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace fcm
