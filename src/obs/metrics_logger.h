// Periodic metrics export for long-running ingest (DESIGN.md §8).
//
// A background jthread scrapes a MetricsRegistry every `interval` and
// appends the snapshot to a file as JSON lines (one compacted
// "fcm.metrics.v1" object per line). stop() / destruction is
// prompt: the sleep is a stop_token-aware condition wait, not a plain
// sleep_for.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <fstream>
#include <string>
#include <thread>

#include "common/thread_annotations.h"
#include "obs/metrics_registry.h"

namespace fcm::obs {

class MetricsLogger {
 public:
  struct Options {
    std::string path;  // appended to; must be non-empty
    std::chrono::milliseconds interval{1000};
  };

  MetricsLogger(MetricsRegistry& registry, Options options);
  ~MetricsLogger();

  MetricsLogger(const MetricsLogger&) = delete;
  MetricsLogger& operator=(const MetricsLogger&) = delete;

  // Idempotent; joins the logger thread and writes one final snapshot, so
  // short runs still record.
  void stop();

  std::size_t snapshots_written() const;

 private:
  void write_snapshot() FCM_REQUIRES(mutex_);
  void run(const std::stop_token& token);

  MetricsRegistry& registry_;
  Options options_;
  mutable common::Mutex mutex_;
  std::condition_variable_any cv_;
  std::ofstream out_ FCM_GUARDED_BY(mutex_);
  std::size_t snapshots_written_ FCM_GUARDED_BY(mutex_) = 0;
  bool stopped_ FCM_GUARDED_BY(mutex_) = false;
  std::jthread thread_;
};

}  // namespace fcm::obs
