// Shared pieces of the benchmark harness: run options, the result record
// every workload fills, the in-memory span tracer, and process probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fcm.h"
#include "framework/fcm_framework.h"
#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for generated captures and the span dump.
  std::string workdir;
};

// Seconds on the steady clock since the first call in this process.
double now_s();

// One named measurement. `source` says how a per-layer value was obtained:
// "path" (timed on the workload's own path) or "probe" (timed by a layer
// probe over one epoch of the workload's data).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string source = "path";
};

class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1, const std::string& source = "path");
  bool has(const std::string& name) const;
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }

  // A workload parameter, recorded verbatim in the result.
  void param(const std::string& name, const std::string& value);
  void param(const std::string& name, double value);
  const std::vector<std::pair<std::string, std::string>>& params() const noexcept {
    return params_;
  }

  // Counts `failed` of `attempted` operations; a failure also records `what`.
  void record(const std::string& what, std::uint64_t attempted,
              std::uint64_t failed);
  void gate(const std::string& what, bool passed) {
    record(what, 1, passed ? 0 : 1);
  }
  const FailureLedger& ledger() const noexcept { return ledger_; }
  const std::vector<std::string>& failures() const noexcept { return failures_; }

  std::string spans_file;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> params_;
  FailureLedger ledger_;
  std::vector<std::string> failures_;
};

// Spans recorded around calls into each layer in the traced run: name,
// start, end, and the epoch that caused them (spans of one epoch share that
// id). One tracer per thread; kept in memory and written out when the run
// ends. A null tracer records nothing.
struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint32_t id = 0;
  std::uint64_t epoch = 0;
};

class Tracer {
 public:
  explicit Tracer(std::string thread_name) : thread_(std::move(thread_name)) {
    spans_.reserve(1 << 14);
  }

  // Opens a span; returns its id for close().
  std::uint32_t open(const char* name, std::uint64_t epoch);
  void close(std::uint32_t id);

  const std::string& thread() const noexcept { return thread_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  // Durations in seconds of every closed span named `name`.
  std::vector<double> durations(const std::string& name) const;
  double total(const std::string& name) const;

 private:
  std::string thread_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t epoch)
      : tracer_(tracer), id_(tracer ? tracer->open(name, epoch) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// Writes every tracer's spans as JSON lines; returns false on I/O failure.
bool write_spans(const std::string& path, const std::vector<const Tracer*>& tracers);

// Resets the kernel's peak-RSS mark (VmHWM) so the next read covers only
// what runs after this call. False when the kernel refuses.
bool reset_peak_rss();
// VmHWM in MiB; 0 when unavailable.
double peak_rss_mb();

// The sketch every workload uses: 600 KB FCM, 2 trees, k = 8, 8/16/32-bit
// stages, the library's default hash seed.
framework::FcmFramework::Options sketch_options(obs::MetricsRegistry* metrics);
inline constexpr std::size_t kSketchBytes = 600'000;

// Byte-identical counter state: every node of every stage of every tree.
// Promotion tallies are telemetry and are not compared.
bool same_counter_state(const core::FcmSketch& a, const core::FcmSketch& b);

// Median of `repeats` runs of `setup`, in seconds. The last run's products
// stay with the caller (setup writes them into captured state). Each run
// should release the previous run's products before building its own, so
// every repeat, and the heap the timed phase starts from, is the same.
template <typename Setup>
double median_setup_seconds(int repeats, Setup&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const double start = now_s();
    setup();
    seconds.push_back(now_s() - start);
  }
  return percentile(seconds, 0.5);
}

inline constexpr int kSetupRepeats = 3;

// Sets <prefix>_p50_<unit> and, where the sample count supports it,
// <prefix>_p90_<unit> and <prefix>_p99_<unit> from `samples_s` (seconds)
// scaled by `scale`; with `mean`, also <prefix>_mean_<unit>, the mean with
// the top and bottom 10% trimmed.
void report_percentiles(Result& result, const std::string& prefix,
                        const std::string& unit, double scale,
                        const std::vector<double>& samples_s, bool mean = false);

// Fixed flow identities by popularity rank. Built from a key sequence, it
// maps the flow with the r-th most packets (ties broken by key) to a key that
// depends on r alone. Relabelled inputs keep every seed's packet
// draws but give the heaviest flows the same keys under every seed, so where
// they hash (shard balance, sketch collisions) is not a property of the seed.
class RankLabels {
 public:
  explicit RankLabels(std::span<const flow::FlowKey> keys);
  flow::FlowKey operator()(flow::FlowKey key) const;

 private:
  std::size_t slot_of(flow::FlowKey key) const;

  // Open addressing, key 0 marks an empty slot (no generated key is 0).
  std::vector<flow::FlowKey> keys_;
  std::vector<std::uint32_t> values_;  // count while building, then label
  std::size_t mask_ = 0;
  std::size_t flows_ = 0;
};

// Average relative error of `sketch` flow-size estimates over the true flows.
double flow_are(const std::unordered_map<flow::FlowKey, std::uint64_t>& truth,
                const framework::FcmFramework& sketch);

}  // namespace perfbench
