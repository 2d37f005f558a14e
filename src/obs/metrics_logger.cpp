#include "obs/metrics_logger.h"

#include <algorithm>
#include <stdexcept>

namespace fcm::obs {

namespace {

// JSON-lines wants one object per line; the pretty exporter is collapsed by
// dropping newlines and the indentation that follows them.
std::string compact_json(const std::string& pretty) {
  std::string out;
  out.reserve(pretty.size());
  bool skipping_indent = false;
  for (const char c : pretty) {
    if (c == '\n') {
      skipping_indent = true;
      continue;
    }
    if (skipping_indent && c == ' ') continue;
    skipping_indent = false;
    out += c;
  }
  return out;
}

}  // namespace

MetricsLogger::MetricsLogger(MetricsRegistry& registry, Options options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.path.empty()) {
    throw std::invalid_argument("obs::MetricsLogger: path must be non-empty");
  }
  options_.interval = std::max(options_.interval, std::chrono::milliseconds(1));
  {
    // Nothing can contend yet (the thread starts below), but out_ is guarded
    // state, so take the lock for the analysis — uncontended, so free.
    common::MutexLock lock(mutex_);
    out_.open(options_.path, std::ios::app);
    if (!out_) {
      throw std::runtime_error("obs::MetricsLogger: cannot open " +
                               options_.path);
    }
  }
  thread_ = std::jthread([this](const std::stop_token& token) { run(token); });
}

MetricsLogger::~MetricsLogger() { stop(); }

void MetricsLogger::run(const std::stop_token& token) {
  common::MutexLock lock(mutex_);
  while (!token.stop_requested()) {
    // Stop-token-aware timed wait (the predicate is never satisfied, so this
    // returns after `interval` or as soon as stop is requested).
    cv_.wait_for(lock, token, options_.interval, [] { return false; });
    if (token.stop_requested()) break;
    write_snapshot();
  }
}

void MetricsLogger::write_snapshot() {
  // Called with mutex_ held.
  out_ << compact_json(registry_.snapshot().to_json()) << "\n";
  out_.flush();
  ++snapshots_written_;
}

void MetricsLogger::stop() {
  {
    common::MutexLock lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  thread_.request_stop();
  cv_.notify_all();
  thread_.join();
  common::MutexLock lock(mutex_);
  write_snapshot();
  out_.close();
}

std::size_t MetricsLogger::snapshots_written() const {
  common::MutexLock lock(mutex_);
  return snapshots_written_;
}

}  // namespace fcm::obs
