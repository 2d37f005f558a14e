#include "datapath/capture_ingest.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <vector>

namespace fcm::datapath {

namespace {

// A classic global header. The reader is built once this much of the
// capture (or all of a shorter one) is buffered, so header errors fire
// exactly as they do on a whole buffer.
constexpr std::size_t kHeaderBytes = 24;
// load_capture's read buffer.
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
// The smallest packet record in either dialect: a classic record header or
// a pcapng SPB, each 16 bytes. Bounds the packet count of a capture.
constexpr std::size_t kMinRecordBytes = 16;

// The one decode loop behind decode_capture and load_capture. `read` copies
// input into the (never empty) span it is given and returns the byte count,
// 0 at end of input. The buffer starts at `buffer_bytes` and doubles only
// when a single record or block fills it; `input_bytes` (the capture size)
// sizes the trace once.
template <typename Read>
DecodedCapture decode_stream(Read&& read, std::size_t buffer_bytes,
                             std::size_t input_bytes) {
  std::vector<std::byte> buffer(std::max(buffer_bytes, kHeaderBytes));
  std::size_t fill = 0;
  bool eof = false;
  auto top_up = [&] {
    const std::size_t got = read(std::span(buffer).subspan(fill));
    fill += got;
    eof = got == 0;
  };
  while (fill < kHeaderBytes && !eof) top_up();
  PcapReader reader(std::span<const std::byte>(buffer).first(fill));

  DecodedCapture decoded;
  // Untouched reserved pages never count toward RSS.
  decoded.trace.reserve(input_bytes / kMinRecordBytes + 1);
  RawRecord record;
  ParsedPacket parsed;
  for (;;) {
    // Carry the unconsumed tail (a record or block cut by the buffer edge)
    // to the front; a tail that fills the whole buffer is one oversized
    // record, so the buffer grows instead.
    const std::size_t consumed = reader.consumed();
    if (consumed > 0) {
      const auto tail = std::span(buffer).subspan(consumed, fill - consumed);
      std::copy(tail.begin(), tail.end(), buffer.begin());
      fill -= consumed;
    } else if (fill == buffer.size()) {
      buffer.resize(2 * buffer.size());
    }
    if (!eof) top_up();
    reader.refill(std::span<const std::byte>(buffer).first(fill), eof);

    RecordOutcome outcome = RecordOutcome::kRecord;
    while ((outcome = reader.next(record)) == RecordOutcome::kRecord) {
      const ParseOutcome parse_outcome = parse_packet(record, parsed);
      ++decoded.stats.parse_outcomes[static_cast<std::size_t>(parse_outcome)];
      if (parse_outcome != ParseOutcome::kOk) continue;
      ++decoded.stats.parsed;
      decoded.trace.append(flow::Packet{parsed.tuple.source_key(),
                                        parsed.wire_bytes,
                                        parsed.timestamp_ns});
    }
    if (outcome != RecordOutcome::kNeedMoreInput) {
      decoded.stats.capture_end = outcome;
      break;
    }
  }
  decoded.stats.capture = reader.stats();
  return decoded;
}

// Read-only file descriptor, closed on scope exit.
class CaptureFile {
 public:
  explicit CaptureFile(const std::string& path)
      : path_(path), fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) throw std::runtime_error("load_capture: cannot open " + path);
  }
  ~CaptureFile() { ::close(fd_); }
  CaptureFile(const CaptureFile&) = delete;
  CaptureFile& operator=(const CaptureFile&) = delete;

  // Size of a regular file; 0 when unknown (only sizes the trace).
  std::size_t size() const {
    struct stat info {};
    if (::fstat(fd_, &info) != 0 || !S_ISREG(info.st_mode)) return 0;
    return static_cast<std::size_t>(info.st_size);
  }

  std::size_t read(std::span<std::byte> into) {
    for (;;) {
      const ssize_t got = ::read(fd_, into.data(), into.size());
      if (got >= 0) return static_cast<std::size_t>(got);
      if (errno != EINTR) {
        throw std::runtime_error("load_capture: read failed on " + path_);
      }
    }
  }

 private:
  std::string path_;
  int fd_;
};

}  // namespace

DecodedCapture decode_capture(std::span<const std::byte> data,
                              std::size_t chunk_bytes) {
  FCM_REQUIRE(chunk_bytes > 0, "decode_capture: chunk_bytes must be positive");
  std::size_t offset = 0;
  auto copy_next = [&](std::span<std::byte> into) {
    const std::size_t count =
        std::min({into.size(), chunk_bytes, data.size() - offset});
    const auto piece = data.subspan(offset, count);
    std::copy(piece.begin(), piece.end(), into.begin());
    offset += count;
    return count;
  };
  return decode_stream(copy_next, std::min(chunk_bytes, data.size()),
                       data.size());
}

DecodedCapture load_capture(const std::string& path) {
  CaptureFile file(path);
  auto read_next = [&](std::span<std::byte> into) { return file.read(into); };
  return decode_stream(read_next, kChunkBytes, file.size());
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
