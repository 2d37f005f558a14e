#include "datapath/pcap_reader.h"

#include <algorithm>

namespace fcm::datapath {

namespace {

// Classic pcap magics, as read little-endian from the first four bytes.
constexpr std::uint32_t kMagicMicroLe = 0xa1b2c3d4;
constexpr std::uint32_t kMagicMicroBe = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNanoLe = 0xa1b23c4d;
constexpr std::uint32_t kMagicNanoBe = 0x4d3cb2a1;

// pcapng block types. The SHB type is a byte palindrome (0A 0D 0D 0A), so it
// reads the same in either byte order — exactly why the format chose it.
constexpr std::uint32_t kBlockSectionHeader = 0x0A0D0D0A;
constexpr std::uint32_t kBlockInterface = 0x00000001;
constexpr std::uint32_t kBlockSimplePacket = 0x00000003;
constexpr std::uint32_t kBlockEnhancedPacket = 0x00000006;

// SHB byte-order magic as read little-endian: a little-endian section stores
// 2B 3C 4D 1A... i.e. reads back 0x1A2B3C4D; a big-endian one 0x4D3C2B1A.
constexpr std::uint32_t kByteOrderLe = 0x1A2B3C4D;
constexpr std::uint32_t kByteOrderBe = 0x4D3C2B1A;

constexpr std::uint64_t kNanosPerSecond = 1'000'000'000;

std::uint64_t ticks_to_nanos(std::uint64_t ticks, std::uint64_t ticks_per_second) {
  if (ticks_per_second == kNanosPerSecond) return ticks;
  // 128-bit intermediate: exact for every resolution if_tsresol can express.
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(ticks) *
                                    kNanosPerSecond / ticks_per_second);
}

}  // namespace

const char* to_string(RecordOutcome outcome) {
  switch (outcome) {
    case RecordOutcome::kRecord: return "record";
    case RecordOutcome::kEndOfCapture: return "end-of-capture";
    case RecordOutcome::kTruncated: return "truncated";
    case RecordOutcome::kMalformedTerminal: return "malformed-terminal";
    case RecordOutcome::kNeedMoreInput: return "need-more-input";
  }
  return "unknown";
}

PcapReader::PcapReader(std::span<const std::byte> data) : cursor_(data) {
  if (!cursor_.can_read(4)) throw PcapError("pcap: shorter than any magic");
  const std::uint32_t magic = cursor_.peek<4>().u32le<0>();
  switch (magic) {
    case kMagicMicroLe: big_endian_ = false; nanosecond_ = false; break;
    case kMagicMicroBe: big_endian_ = true; nanosecond_ = false; break;
    case kMagicNanoLe: big_endian_ = false; nanosecond_ = true; break;
    case kMagicNanoBe: big_endian_ = true; nanosecond_ = true; break;
    case kBlockSectionHeader:
      format_ = Format::kPcapNg;
      // Byte order comes from the SHB body, parsed by the first next().
      return;
    default:
      throw PcapError("pcap: unrecognized magic number");
  }
  parse_classic_header();
}

void PcapReader::parse_classic_header() {
  if (!cursor_.can_read(24)) throw PcapError("pcap: truncated global header");
  // magic (already sniffed), version major/minor, thiszone, sigfigs,
  // snaplen, link type.
  const FixedBytes<24> header = cursor_.take<24>();
  const std::uint16_t version_major = header.u16<4>(big_endian_);
  snaplen_ = header.u32<16>(big_endian_);
  link_type_ = header.u32<20>(big_endian_);
  if (version_major != 2) {
    throw PcapError("pcap: unsupported major version");
  }
  if (snaplen_ > kMaxCaptureLength) {
    throw PcapError("pcap: absurd snaplen in global header");
  }
}

void PcapReader::refill(std::span<const std::byte> data, bool final) {
  cursor_ = ByteCursor(data);
  final_ = final;
}

RecordOutcome PcapReader::next(RawRecord& out) {
  if (terminated_) return RecordOutcome::kEndOfCapture;
  const RecordOutcome outcome = format_ == Format::kPcapNg
                                    ? next_pcapng(out)
                                    : next_classic(out);
  if (outcome != RecordOutcome::kRecord &&
      outcome != RecordOutcome::kNeedMoreInput) {
    terminated_ = true;
  }
  return outcome;
}

// The chunk ran out exactly on a record boundary.
RecordOutcome PcapReader::end_of_chunk() const noexcept {
  return final_ ? RecordOutcome::kEndOfCapture : RecordOutcome::kNeedMoreInput;
}

// The chunk ends inside the record or block at the cursor, which is left
// unconsumed. Only the final chunk makes that a truncation.
RecordOutcome PcapReader::cut_short() noexcept {
  if (!final_) return RecordOutcome::kNeedMoreInput;
  ++stats_.truncated;
  return RecordOutcome::kTruncated;
}

RecordOutcome PcapReader::next_classic(RawRecord& out) {
  for (;;) {
    if (cursor_.remaining() == 0) return end_of_chunk();
    if (!cursor_.can_read(16)) return cut_short();
    const FixedBytes<16> header = cursor_.peek<16>();
    const std::uint64_t seconds = header.u32<0>(big_endian_);
    const std::uint64_t subsecond = header.u32<4>(big_endian_);
    const std::uint32_t capture_length = header.u32<8>(big_endian_);
    const std::uint32_t original_length = header.u32<12>(big_endian_);
    if (capture_length > kMaxCaptureLength) {
      // The length itself is garbage, so there is no trustworthy way to find
      // the next record boundary.
      ++stats_.malformed_terminal;
      return RecordOutcome::kMalformedTerminal;
    }
    // The header stays unconsumed until the body is present too: a cut body
    // arrives, header and all, with the next chunk.
    if (!cursor_.can_read(16 + std::size_t{capture_length})) return cut_short();
    cursor_.skip(16);
    const std::uint64_t subsecond_limit =
        nanosecond_ ? kNanosPerSecond : 1'000'000;
    const bool oversized = snaplen_ > 0 && capture_length > snaplen_;
    if (oversized || subsecond >= subsecond_limit ||
        original_length < capture_length) {
      // Internally inconsistent but length-delimited: skip and resync.
      ++stats_.malformed_skipped;
      cursor_.skip(capture_length);
      continue;
    }
    out.bytes = cursor_.bytes(capture_length);
    out.timestamp_ns = seconds * kNanosPerSecond +
                       (nanosecond_ ? subsecond : subsecond * 1000);
    out.original_length = original_length;
    out.link_type = link_type_;
    ++stats_.records;
    return RecordOutcome::kRecord;
  }
}

void PcapReader::parse_section_header(ByteCursor& body, bool first_section) {
  // The caller validated the byte-order magic at offset 0 and the block
  // length (at least 28, so the body holds magic, major and minor).
  const std::uint16_t version_major = body.take<8>().u16<4>(big_endian_);
  if (version_major != 1) {
    if (first_section) throw PcapError("pcapng: unsupported major version");
    ++stats_.malformed_skipped;
  }
  // A new section resets interface state (IDs are section-scoped).
  interfaces_.clear();
}

bool PcapReader::parse_interface_block(ByteCursor& body) {
  if (!body.can_read(8)) return false;
  const FixedBytes<8> fixed = body.take<8>();  // link type, reserved, snaplen
  Interface iface;
  iface.link_type = fixed.u16<0>(big_endian_);
  iface.snaplen = std::min(fixed.u32<4>(big_endian_), kMaxCaptureLength);
  // Option walk, only for if_tsresol (code 9). Options are TLVs padded to 4;
  // any inconsistency just ends the walk (defaults stay in force).
  while (body.can_read(4)) {
    const std::uint16_t code = body.u16(big_endian_);
    const std::uint16_t length = body.u16(big_endian_);
    if (code == 0) break;  // opt_endofopt
    const std::size_t padded = (static_cast<std::size_t>(length) + 3) & ~std::size_t{3};
    if (!body.can_read(padded)) break;
    if (code == 9 && length == 1) {
      const std::uint8_t resolution = body.peek<1>().u8<0>();
      if ((resolution & 0x80) != 0) {
        const unsigned exponent = resolution & 0x7f;
        if (exponent <= 30) iface.ticks_per_second = std::uint64_t{1} << exponent;
      } else if (resolution <= 9) {
        std::uint64_t ticks = 1;
        for (unsigned i = 0; i < resolution; ++i) ticks *= 10;
        iface.ticks_per_second = ticks;
      }
      // Finer-than-nanosecond (or nonsense) resolutions keep the default.
    }
    body.skip(padded);
  }
  interfaces_.push_back(iface);
  return true;
}

bool PcapReader::parse_enhanced_packet(ByteCursor& body, RawRecord& out) {
  if (!body.can_read(20)) return false;
  const FixedBytes<20> fixed = body.take<20>();
  const std::uint32_t interface_id = fixed.u32<0>(big_endian_);
  const std::uint64_t ticks_high = fixed.u32<4>(big_endian_);
  const std::uint64_t ticks_low = fixed.u32<8>(big_endian_);
  const std::uint32_t capture_length = fixed.u32<12>(big_endian_);
  const std::uint32_t original_length = fixed.u32<16>(big_endian_);
  if (interface_id >= interfaces_.size()) return false;
  if (capture_length > kMaxCaptureLength) return false;
  if (!body.can_read(capture_length)) return false;  // claims more than block holds
  if (original_length < capture_length) return false;
  const Interface& iface = interfaces_[interface_id];
  out.bytes = body.bytes(capture_length);
  out.timestamp_ns =
      ticks_to_nanos((ticks_high << 32) | ticks_low, iface.ticks_per_second);
  out.original_length = original_length;
  out.link_type = iface.link_type;
  return true;
}

bool PcapReader::parse_simple_packet(ByteCursor& body, RawRecord& out) {
  if (!body.can_read(4)) return false;
  if (interfaces_.empty()) return false;  // SPB implies interface 0 exists
  const std::uint32_t original_length = body.take<4>().u32<0>(big_endian_);
  const Interface& iface = interfaces_.front();
  std::uint32_t capture_length = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(original_length, body.remaining()));
  if (iface.snaplen > 0) capture_length = std::min(capture_length, iface.snaplen);
  out.bytes = body.bytes(capture_length);
  out.timestamp_ns = 0;  // SPBs carry no timestamp
  out.original_length = original_length;
  out.link_type = iface.link_type;
  return true;
}

RecordOutcome PcapReader::next_pcapng(RawRecord& out) {
  for (;;) {
    if (cursor_.remaining() == 0) return end_of_chunk();
    if (!cursor_.can_read(12)) return cut_short();
    const FixedBytes<12> head = cursor_.peek<12>();  // type, length, 4 more
    const bool is_section_header = head.u32le<0>() == kBlockSectionHeader;
    if (is_section_header) {
      // Byte order is (re)established by the byte-order magic at offset 8;
      // only then can the length word be interpreted.
      const std::uint32_t order_magic_le = head.u32le<8>();
      if (order_magic_le == kByteOrderLe) {
        big_endian_ = false;
      } else if (order_magic_le == kByteOrderBe) {
        big_endian_ = true;
      } else {
        ++stats_.malformed_terminal;
        return RecordOutcome::kMalformedTerminal;
      }
    }
    const std::uint32_t total_length = head.u32<4>(big_endian_);
    const std::size_t minimum = is_section_header ? 28 : 12;
    if (total_length < minimum || total_length % 4 != 0 ||
        total_length > kMaxCaptureLength) {
      ++stats_.malformed_terminal;
      return RecordOutcome::kMalformedTerminal;
    }
    if (!cursor_.can_read(total_length)) return cut_short();
    ByteCursor block = cursor_.sub(total_length);
    block.skip(8);  // type + leading length
    ByteCursor body = block.sub(total_length - 12);
    if (block.take<4>().u32<0>(big_endian_) != total_length) {
      // Leading/trailing length mismatch: the stream's framing is gone.
      ++stats_.malformed_terminal;
      return RecordOutcome::kMalformedTerminal;
    }
    if (is_section_header) {
      parse_section_header(body, !section_seen_);
      section_seen_ = true;
      continue;
    }
    switch (head.u32<0>(big_endian_)) {
      case kBlockInterface:
        if (!parse_interface_block(body)) ++stats_.malformed_skipped;
        continue;
      case kBlockEnhancedPacket:
        if (parse_enhanced_packet(body, out)) {
          ++stats_.records;
          return RecordOutcome::kRecord;
        }
        ++stats_.malformed_skipped;
        continue;
      case kBlockSimplePacket:
        if (parse_simple_packet(body, out)) {
          ++stats_.records;
          return RecordOutcome::kRecord;
        }
        ++stats_.malformed_skipped;
        continue;
      default:
        ++stats_.blocks_skipped;
        continue;
    }
  }
}

}  // namespace fcm::datapath
