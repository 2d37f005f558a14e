#include "datapath/capture_ingest.h"

#include <fstream>
#include <stdexcept>
#include <vector>

namespace fcm::datapath {

DecodedCapture decode_capture(std::span<const std::byte> data) {
  DecodedCapture decoded;
  PcapReader reader(data);
  RawRecord record;
  for (;;) {
    const RecordOutcome outcome = reader.next(record);
    if (outcome != RecordOutcome::kRecord) {
      decoded.stats.capture_end = outcome;
      break;
    }
    ParsedPacket parsed;
    const ParseOutcome parse_outcome = parse_packet(record, parsed);
    ++decoded.stats.parse_outcomes[static_cast<std::size_t>(parse_outcome)];
    if (parse_outcome != ParseOutcome::kOk) continue;
    ++decoded.stats.parsed;
    decoded.trace.append(flow::Packet{parsed.tuple.source_key(),
                                      parsed.wire_bytes, parsed.timestamp_ns});
  }
  decoded.stats.capture = reader.stats();
  return decoded;
}

DecodedCapture load_capture(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) throw std::runtime_error("load_capture: cannot open " + path);
  const std::streamsize size = file.tellg();
  file.seekg(0, std::ios::beg);
  std::vector<char> raw(static_cast<std::size_t>(size));
  if (size > 0 && !file.read(raw.data(), size)) {
    throw std::runtime_error("load_capture: short read on " + path);
  }
  return decode_capture(std::as_bytes(std::span<const char>(raw)));
}

void export_metrics(const DecodeStats& stats, obs::MetricsRegistry* registry,
                    const std::string& instance) {
  if (registry == nullptr) return;
  auto labels = [&](const char* name,
                    const char* value) -> std::vector<obs::MetricLabel> {
    std::vector<obs::MetricLabel> result;
    if (!instance.empty()) result.push_back({"instance", instance});
    if (value != nullptr) result.push_back({name, value});
    return result;
  };
  registry
      ->counter("fcm_datapath_packets_total", labels(nullptr, nullptr),
                "Capture records decoded into trace packets")
      .inc(stats.parsed);
  registry
      ->counter("fcm_datapath_capture_truncated_total", labels(nullptr, nullptr),
                "Capture records lost to end-of-input truncation")
      .inc(stats.capture.truncated);
  registry
      ->counter("fcm_datapath_capture_malformed_total", labels(nullptr, nullptr),
                "Capture records skipped or terminal due to corrupt framing")
      .inc(stats.capture.malformed_skipped + stats.capture.malformed_terminal);
  // Per-outcome parse failures, labeled by the typed outcome name.
  for (std::size_t i = 1; i < stats.parse_outcomes.size(); ++i) {
    if (stats.parse_outcomes[i] == 0) continue;
    registry
        ->counter("fcm_datapath_parse_failures_total",
                  labels("outcome", to_string(static_cast<ParseOutcome>(i))),
                  "Captured packets the L2-L4 parser rejected, by outcome")
        .inc(stats.parse_outcomes[i]);
  }
}

}  // namespace fcm::datapath
