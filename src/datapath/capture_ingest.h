// Capture bytes -> flow::Trace: the glue between the pcap reader, the packet
// parser, and everything downstream that already consumes traces (frameworks,
// benches, golden-metric tests). Parse failures are COUNTED per typed outcome
// and skipped — a capture full of garbage decodes to a short trace plus an
// honest ledger, never a crash (DESIGN.md §12).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "datapath/packet_parser.h"
#include "datapath/pcap_reader.h"
#include "flow/trace.h"
#include "obs/metrics_registry.h"

namespace fcm::datapath {

struct DecodeStats {
  CaptureStats capture;                 // reader-level ledger
  RecordOutcome capture_end = RecordOutcome::kEndOfCapture;  // how it ended
  std::uint64_t parsed = 0;             // records decoded into trace packets
  // Per-outcome parse tally (index = ParseOutcome; kOk counts into parsed).
  std::array<std::uint64_t, kParseOutcomeCount> parse_outcomes{};

  std::uint64_t parse_failures() const {
    std::uint64_t failures = 0;
    for (std::size_t i = 1; i < parse_outcomes.size(); ++i) {
      failures += parse_outcomes[i];
    }
    return failures;
  }
};

struct DecodedCapture {
  flow::Trace trace;  // key = FiveTuple::source_key()
  DecodeStats stats;
};

// Capture decode runs as a two-stage pipeline (DESIGN.md §12.2). The
// calling thread, the framer, reads the input one chunk at a time into the
// buffer of a ring slot, frames it with the resumable PcapReader and writes
// each record's view straight into the slot's block of a
// common::BlockQueue<RawRecord>; the record or block cut by the chunk edge
// is copied to the front of the next slot's buffer. One parser thread per
// call parses each published block in order into the trace and the ledger,
// then releases the slot, and only then is its buffer rewritten. An
// exception on either side ends both and is rethrown on the caller.

// Bytes one read fills, and so the size of each slot's buffer: a record up
// to this long (a 64 KiB loopback frame included) never grows a buffer.
inline constexpr std::size_t kCaptureChunkBytes = std::size_t{128} << 10;
// Slots of the ring, each a block of kCaptureChunkBytes / 16 record views
// paired with one buffer. A longer record grows its slot's buffer; growth
// first waits for the parser to drain the ring and frees any other grown
// buffer, so memory stays within the ring plus one buffer of at most twice
// the largest record.
inline constexpr std::size_t kCaptureRingSlots = 8;

// Decodes an in-memory capture. Packet bytes are the ORIGINAL wire length
// (so kBytes-mode frameworks measure real traffic volume even for sliced
// captures). Throws PcapError only for structural pre-packet damage (empty
// input included); every mid-stream problem lands in stats.
//
// Runs load_capture's pipeline, copying at most `chunk_bytes` (> 0) of
// `data` per read; the default reads whole chunks, as load_capture does.
// Every chunk size yields the same trace and ledger.
DecodedCapture decode_capture(std::span<const std::byte> data,
                              std::size_t chunk_bytes = kCaptureChunkBytes);

// Streams the file at `path` through the pipeline and decodes it. Throws
// std::runtime_error on I/O failure, PcapError as above.
DecodedCapture load_capture(const std::string& path);

// Publishes the decode ledger as fcm_datapath_* counters (hit the same
// registry the frameworks use).
void export_metrics(const DecodeStats& stats, obs::MetricsRegistry* registry);

}  // namespace fcm::datapath
