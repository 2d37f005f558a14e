// Capture bytes -> flow::Trace: the glue between the pcap reader, the packet
// parser, and everything downstream that already consumes traces (frameworks,
// benches, golden-metric tests). Parse failures are COUNTED per typed outcome
// and skipped — a capture full of garbage decodes to a short trace plus an
// honest ledger, never a crash (DESIGN.md §12).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
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

// Decodes an in-memory capture. Packet bytes are the ORIGINAL wire length
// (so kBytes-mode frameworks measure real traffic volume even for sliced
// captures). Throws PcapError only for structural pre-packet damage (empty
// input included); every mid-stream problem lands in stats.
//
// Runs the same refill loop as load_capture, copying at most `chunk_bytes`
// (> 0) of `data` per refill; the default feeds the whole span at once.
// Every chunk size yields the same trace and ledger.
DecodedCapture decode_capture(
    std::span<const std::byte> data,
    std::size_t chunk_bytes = std::numeric_limits<std::size_t>::max());

// Streams the file at `path` through a reusable 1 MiB buffer and decodes it;
// the buffer grows only for a record or block larger than itself. Throws
// std::runtime_error on I/O failure, PcapError as above.
DecodedCapture load_capture(const std::string& path);

// Publishes the decode ledger as fcm_datapath_* counters (hit the same
// registry the frameworks use; instance label optional, "" = unlabeled).
void export_metrics(const DecodeStats& stats, obs::MetricsRegistry* registry,
                    const std::string& instance = "");

}  // namespace fcm::datapath
