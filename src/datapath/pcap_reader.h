// Capture-file reader: classic pcap (microsecond and nanosecond magics, both
// byte orders) and pcapng (SHB/IDB/EPB/SPB, both byte orders, per-interface
// if_tsresol). Input is HOSTILE (DESIGN.md §12): the reader never trusts a
// length field before checking it against the bytes actually present, all
// indexing goes through ByteCursor, and malformed input surfaces as typed
// outcomes — a PcapError for structural damage that precedes any packet
// (bad magic, truncated global header, absurd snaplen), per-record counters
// plus skip/terminate decisions for damage encountered mid-stream. Nothing
// in here is undefined behavior on any byte sequence (the hostile-capture
// suite in tests/test_pcap.cpp sweeps every truncation prefix and seeded
// corruption under ASan/UBSan, at chunk sizes down to one byte). The reader
// is resumable: refill() feeds it a streamed capture chunk by chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/byte_cursor.h"

namespace fcm::datapath {

using common::ByteCursor;
using common::FixedBytes;

// Structural (whole-file) corruption: unknown magic, truncated file header,
// unsupported version, absurd snaplen. Thrown before any packet is produced;
// mid-stream damage is reported through RecordOutcome/CaptureStats instead.
class PcapError : public std::runtime_error {
 public:
  explicit PcapError(const std::string& what) : std::runtime_error(what) {}
};

// One captured record, viewing the reader's underlying buffer (valid while
// the buffer outlives the reader).
struct RawRecord {
  std::span<const std::byte> bytes;  // captured bytes (caplen long)
  std::uint64_t timestamp_ns = 0;
  std::uint32_t original_length = 0;  // on-the-wire length (>= bytes.size())
  std::uint32_t link_type = 0;        // LINKTYPE_* of the capturing interface
};

// What next() found. kTruncated and kMalformedTerminal end the stream (the
// reader cannot resync); recoverable per-record damage is skipped internally
// and counted in CaptureStats, so callers only ever see these five.
enum class RecordOutcome : std::uint8_t {
  kRecord,             // `out` holds a packet
  kEndOfCapture,       // clean end of input
  kTruncated,          // record header or body cut off by end of input
  kMalformedTerminal,  // structurally inconsistent lengths; cannot resync
  kNeedMoreInput,      // non-final chunk ends inside a record; refill()
};

const char* to_string(RecordOutcome outcome);

struct CaptureStats {
  std::uint64_t records = 0;            // delivered packets
  std::uint64_t truncated = 0;          // stream ended inside a record/block
  std::uint64_t malformed_skipped = 0;  // bad record skipped (resync possible)
  std::uint64_t malformed_terminal = 0; // bad record ended the stream
  std::uint64_t blocks_skipped = 0;     // pcapng non-packet/unknown blocks
};

// Well-known LINKTYPE_* values the packet parser understands; the reader
// passes any value through (an exotic link type is a per-packet parser
// outcome, not a capture error).
inline constexpr std::uint32_t kLinkTypeNull = 0;
inline constexpr std::uint32_t kLinkTypeEthernet = 1;
inline constexpr std::uint32_t kLinkTypeRawIp = 101;
inline constexpr std::uint32_t kLinkTypeLoop = 108;

class PcapReader {
 public:
  // Sanity ceiling for per-record capture lengths and file snaplens; real
  // snaplens top out at 256 KiB, so anything past 64 MiB is corruption.
  static constexpr std::uint32_t kMaxCaptureLength = 1u << 26;

  // Sniffs the format from `data` (which must outlive the reader) and treats
  // it as the whole, final input, so next() never returns kNeedMoreInput.
  // Throws PcapError when the input cannot be a capture file at all
  // (including empty input). A classic global header is the first 24 bytes,
  // so `data` must hold min(24, capture size) bytes for streaming callers.
  explicit PcapReader(std::span<const std::byte> data);

  // Pulls the next packet. Returns kRecord and fills `out`, or a terminal
  // outcome (see RecordOutcome). Recoverable damage is skipped silently and
  // counted; call stats() for the tally. On a non-final chunk a record or
  // block cut by the chunk end is left unconsumed and kNeedMoreInput is
  // returned; only the final chunk counts it as truncated.
  RecordOutcome next(RawRecord& out);

  // Bytes of the current chunk consumed so far: every complete record or
  // block before the cut that made next() return kNeedMoreInput.
  std::size_t consumed() const noexcept { return cursor_.offset(); }

  // Resumes on a new chunk that starts with the unconsumed bytes of the old
  // one (data[consumed(), end)) followed by fresh input. Format, byte order,
  // section and interface state and the stats carry over. `final` marks the
  // chunk that ends the capture.
  void refill(std::span<const std::byte> data, bool final);

  const CaptureStats& stats() const noexcept { return stats_; }
  bool is_pcapng() const noexcept { return format_ == Format::kPcapNg; }
  bool big_endian() const noexcept { return big_endian_; }

 private:
  enum class Format : std::uint8_t { kClassic, kPcapNg };

  struct Interface {
    std::uint32_t link_type = kLinkTypeEthernet;
    std::uint32_t snaplen = 0;  // 0 = unlimited
    // Ticks per second of EPB timestamps (if_tsresol; default 10^6).
    std::uint64_t ticks_per_second = 1'000'000;
  };

  void parse_classic_header();
  void parse_section_header(ByteCursor& body, bool first_section);
  RecordOutcome next_classic(RawRecord& out);
  RecordOutcome next_pcapng(RawRecord& out);
  RecordOutcome end_of_chunk() const noexcept;
  RecordOutcome cut_short() noexcept;
  bool parse_interface_block(ByteCursor& body);
  bool parse_enhanced_packet(ByteCursor& body, RawRecord& out);
  bool parse_simple_packet(ByteCursor& body, RawRecord& out);

  ByteCursor cursor_;
  Format format_ = Format::kClassic;
  bool big_endian_ = false;
  bool nanosecond_ = false;       // classic: magic selects ns sub-second units
  bool terminated_ = false;       // a terminal outcome was already returned
  bool final_ = true;             // the current chunk ends the capture
  bool section_seen_ = false;     // pcapng: at least one SHB fully parsed
  std::uint32_t snaplen_ = 0;     // classic global header snaplen
  std::uint32_t link_type_ = kLinkTypeEthernet;  // classic global link type
  std::vector<Interface> interfaces_;            // pcapng, per current section
  CaptureStats stats_;
};

}  // namespace fcm::datapath
