#include "datapath/capture_ingest.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <exception>
#include <optional>
#include <stdexcept>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

#include "common/block_queue.h"

namespace fcm::datapath {

namespace {

// A classic global header. The reader is built once this much of the
// capture (or all of a shorter one) is buffered, so header errors fire
// exactly as they do on a whole buffer.
constexpr std::size_t kHeaderBytes = 24;
// The smallest packet record in either dialect: a classic record header or
// a pcapng SPB, each 16 bytes. Bounds the packet count of a capture and the
// records one chunk can hold.
constexpr std::size_t kMinRecordBytes = 16;

using RecordRing = common::BlockQueue<RawRecord>;

// Block kinds on the framer -> parser ring.
enum BlockKind : std::uint32_t {
  kRecords = 0,  // more blocks follow
  kLast = 1,     // the capture's last block
};

// The framer stage, on the calling thread. It reads the input into the
// buffer of the ring slot whose block is open and frames it with the
// resumable PcapReader straight into that block. Slot i's block views only
// slot i's buffer, so a buffer is rewritten only after the parser released
// its block. `read` copies input into the (never empty) span it is given
// and returns the byte count, 0 at end of input.
template <typename Read>
class Framer {
 public:
  Framer(Read& read, std::size_t chunk_bytes, RecordRing& ring,
         const std::stop_source& stop)
      : read_(read), chunk_bytes_(chunk_bytes), ring_(ring), stop_(stop) {
    ring_.assume_producer();
    block_ = {ring_.try_open(), ring_.block_size()};  // an empty ring has room
    buffer().resize(chunk_bytes_);
  }

  // Buffers the first kHeaderBytes (or the whole shorter input) and builds
  // the reader on them; throws PcapError as the reader does.
  PcapReader open_capture() {
    while (fill_ < kHeaderBytes && !eof_) top_up();
    return PcapReader(std::span<const std::byte>(buffer()).first(fill_));
  }

  // Frames the rest of the capture, publishing a block whenever its
  // buffer's records are framed and kLast with the final one. Returns how
  // the capture ended, or nullopt when the parser stopped first.
  std::optional<RecordOutcome> run(PcapReader& reader) {
    ring_.assume_producer();
    std::size_t count = 0;  // records framed into the open block
    for (;;) {
      const std::size_t consumed = reader.consumed();
      if (count > 0) {
        ring_.publish(static_cast<std::uint32_t>(count), kRecords);
        count = 0;
        if (!next_slot(consumed)) return std::nullopt;
      } else if (consumed > 0) {
        shift_to_front(consumed);
      } else if (fill_ == buffer().size()) {
        // One record or block fills the whole buffer.
        if (!grow()) return std::nullopt;
      }
      if (!eof_) top_up();
      reader.refill(std::span<const std::byte>(buffer()).first(fill_), eof_);

      // Frame until the chunk runs out or, in a grown buffer, the block
      // fills up (then the rest starts the next slot like any tail).
      RecordOutcome outcome = RecordOutcome::kRecord;
      while (count < block_.size() &&
             (outcome = reader.next(block_[count])) == RecordOutcome::kRecord) {
        ++count;
      }
      if (outcome != RecordOutcome::kRecord &&
          outcome != RecordOutcome::kNeedMoreInput) {
        ring_.publish(static_cast<std::uint32_t>(count), kLast);
        return outcome;
      }
    }
  }

 private:
  std::vector<std::byte>& buffer() { return buffers_[slot_]; }

  void top_up() {
    const std::size_t got = read_(std::span(buffer()).subspan(fill_));
    fill_ += got;
    eof_ = got == 0;
  }

  // Moves the unconsumed tail [consumed, fill) to the buffer's front.
  void shift_to_front(std::size_t consumed) {
    const auto tail = std::span(buffer()).subspan(consumed, fill_ - consumed);
    std::copy(tail.begin(), tail.end(), buffer().begin());
    fill_ = tail.size();
  }

  // Opens the next slot's block and starts its buffer with the tail the
  // reader left unconsumed in the current one.
  bool next_slot(std::size_t consumed) {
    ring_.assume_producer();
    RawRecord* records = nullptr;
    unsigned spins = 0;
    while ((records = ring_.try_open()) == nullptr) {
      if (stop_.stop_requested()) return false;
      common::backoff(spins);  // ring full
    }
    const std::size_t from = slot_;
    slot_ = (slot_ + 1) % kCaptureRingSlots;
    block_ = {records, ring_.block_size()};
    const auto tail =
        std::span(buffers_[from]).subspan(consumed, fill_ - consumed);
    if (tail.size() >= chunk_bytes_) {
      // Only a grown buffer leaves a tail this long. Once the parser is done
      // with it, this slot takes that buffer over instead of growing too.
      if (!wait_drained()) return false;
      std::swap(buffers_[from], buffer());
      shift_to_front(consumed);
      return true;
    }
    // A released slot's buffer is chunk size again (a slot's first use
    // allocates it, and a buffer grown for an earlier record shrinks).
    if (buffer().size() != chunk_bytes_) {
      buffer() = std::vector<std::byte>(chunk_bytes_);
    }
    std::copy(tail.begin(), tail.end(), buffer().begin());
    fill_ = tail.size();
    return true;
  }

  // Doubles the buffer. Waits for the parser to release every block first
  // and frees every other grown buffer, so at most one buffer is ever larger
  // than a chunk.
  bool grow() {
    if (!wait_drained()) return false;
    for (std::size_t i = 0; i < kCaptureRingSlots; ++i) {
      if (i != slot_ && buffers_[i].size() > chunk_bytes_) buffers_[i] = {};
    }
    buffer().resize(2 * buffer().size());
    return true;
  }

  // Waits until the parser has released every published block; false if it
  // stopped first.
  bool wait_drained() {
    ring_.assume_producer();
    unsigned spins = 0;
    while (!ring_.drained()) {
      if (stop_.stop_requested()) return false;
      common::backoff(spins);
    }
    return true;
  }

  Read& read_;
  const std::size_t chunk_bytes_;
  RecordRing& ring_;
  const std::stop_source& stop_;
  std::array<std::vector<std::byte>, kCaptureRingSlots> buffers_;
  std::size_t slot_ = 0;          // slot whose block is open
  std::span<RawRecord> block_;    // the open block's record slots
  std::size_t fill_ = 0;          // bytes buffered in the open slot
  bool eof_ = false;
};

// The parser stage, on its own thread: parses each block's records in ring
// order into the trace and the per-outcome tally, then releases the block
// and with it the slot's buffer. Returns after the kLast block, or when
// `stop` is requested while it waits.
void parse_blocks(RecordRing& ring, const std::stop_source& stop,
                  DecodedCapture& decoded) {
  ring.assume_consumer();
  RecordRing::View view;
  ParsedPacket parsed;
  for (;;) {
    unsigned spins = 0;
    while (!ring.try_front(view)) {
      if (stop.stop_requested()) return;
      common::backoff(spins);  // ring empty
    }
    for (const RawRecord& record : std::span(view.data, view.count)) {
      const ParseOutcome parse_outcome = parse_packet(record, parsed);
      ++decoded.stats.parse_outcomes[static_cast<std::size_t>(parse_outcome)];
      if (parse_outcome != ParseOutcome::kOk) continue;
      ++decoded.stats.parsed;
      decoded.trace.append(flow::Packet{parsed.tuple.source_key(),
                                        parsed.wire_bytes,
                                        parsed.timestamp_ns});
    }
    ring.release();
    if (view.kind == kLast) return;
  }
}

// The one decode pipeline behind decode_capture and load_capture. Buffers
// hold `chunk_bytes` and a block holds as many records as a chunk can;
// `input_bytes` (the capture size) sizes the trace once.
template <typename Read>
DecodedCapture decode_stream(Read&& read, std::size_t chunk_bytes,
                             std::size_t input_bytes) {
  chunk_bytes = std::max(chunk_bytes, kHeaderBytes);
  RecordRing ring(kCaptureRingSlots, chunk_bytes / kMinRecordBytes);
  std::stop_source stop;
  Framer<Read> framer(read, chunk_bytes, ring, stop);
  // Built before the parser starts, so a classic header error never starts
  // it. A pcapng capture's first SHB is parsed by the framer's first next(),
  // once the parser runs; that error stops the parser and is rethrown here.
  PcapReader reader = framer.open_capture();

  DecodedCapture decoded;
  // Untouched reserved pages never count toward RSS.
  decoded.trace.reserve(input_bytes / kMinRecordBytes + 1);
  std::exception_ptr parse_error;
  std::jthread parser([&] {
    try {
      parse_blocks(ring, stop, decoded);
    } catch (...) {
      parse_error = std::current_exception();
      stop.request_stop();
    }
  });
  std::optional<RecordOutcome> end;
  try {
    end = framer.run(reader);
  } catch (...) {
    stop.request_stop();  // the jthread joins the parser as this unwinds
    throw;
  }
  parser.join();
  if (parse_error) std::rethrow_exception(parse_error);
  decoded.stats.capture_end = end.value();
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
  return decode_stream(copy_next,
                       std::min({chunk_bytes, data.size(), kCaptureChunkBytes}),
                       data.size());
}

DecodedCapture load_capture(const std::string& path) {
  CaptureFile file(path);
  auto read_next = [&](std::span<std::byte> into) { return file.read(into); };
  return decode_stream(read_next, kCaptureChunkBytes, file.size());
}

void export_metrics(const DecodeStats& stats, obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry
      ->counter("fcm_datapath_packets_total", {},
                "Capture records decoded into trace packets")
      .inc(stats.parsed);
  registry
      ->counter("fcm_datapath_capture_truncated_total", {},
                "Capture records lost to end-of-input truncation")
      .inc(stats.capture.truncated);
  registry
      ->counter("fcm_datapath_capture_malformed_total", {},
                "Capture records skipped or terminal due to corrupt framing")
      .inc(stats.capture.malformed_skipped + stats.capture.malformed_terminal);
  // Per-outcome parse failures, labeled by the typed outcome name.
  for (std::size_t i = 1; i < stats.parse_outcomes.size(); ++i) {
    if (stats.parse_outcomes[i] == 0) continue;
    registry
        ->counter("fcm_datapath_parse_failures_total",
                  {{"outcome", to_string(static_cast<ParseOutcome>(i))}},
                  "Captured packets the L2-L4 parser rejected, by outcome")
        .inc(stats.parse_outcomes[i]);
  }
}

}  // namespace fcm::datapath
