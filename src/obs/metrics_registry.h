// Observability layer (DESIGN.md §8): a lock-free, header-light metrics
// subsystem for the whole stack.
//
// Hot-path discipline: instrumented code holds raw Counter/Gauge/Histogram
// handles (stable addresses inside the registry) and touches ONLY
// relaxed-order atomics — no locks, no allocation. A counter is one atomic:
// every series has one writer at a time (the runtime's shard workers write
// none; the epoch coordinator publishes their per-epoch tallies), so there
// is nothing to stripe. snapshot() reads each series under the registry
// mutex, which only writers of NEW metrics ever take. That makes
// scrape-while-ingest data-race-free by construction (CI's
// FCM_SANITIZE=thread job covers it in test_obs).
//
// The registry is the ONLY sanctioned home for cross-thread telemetry state:
// tools/fcm_lint.py bans raw std::atomic outside src/common/ and src/obs/ so
// ad-hoc counters cannot creep back into the sketch layers.
//
// Exporter: snapshot() returns a plain-data Snapshot whose to_json() renders
// the "fcm.metrics.v1" schema (consumed by the benches' --metrics-json flag,
// MetricsLogger and the golden-schema test).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace fcm::obs {

// Cache-line size; matches common::kCacheLineBytes (the header-only
// annotation header above is the only common/ dependency this header takes,
// so it stays includable from the layers below common/).
inline constexpr std::size_t kObsCacheLineBytes = 64;

namespace detail {

// One histogram bucket per cache line.
struct alignas(kObsCacheLineBytes) Cell {
  std::atomic<std::uint64_t> value{0};
};

// fetch_add for doubles via CAS (std::atomic<double>::fetch_add is C++20 but
// a CAS loop is portable across the toolchains CI builds with). Relaxed is
// correct: metric values are monotone telemetry, not synchronization.
inline void atomic_add_double(std::atomic<std::uint64_t>& bits,
                              double delta) noexcept {
  std::uint64_t observed = bits.load(std::memory_order_relaxed);
  for (;;) {
    const double current = std::bit_cast<double>(observed);
    const std::uint64_t desired = std::bit_cast<std::uint64_t>(current + delta);
    if (bits.compare_exchange_weak(observed, desired,
                                   std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace detail

// Monotone event counter. inc() is wait-free: one relaxed fetch_add. Alone
// on its cache line, so a counter the driver bumps per block never shares
// one with a shard worker's data.
class alignas(kObsCacheLineBytes) Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

// Last-write-wins instantaneous value. Single cell: gauges are set from one
// site at a time (scrape reads are relaxed atomic loads either way).
class Gauge {
 public:
  void set(double v) noexcept {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

// Fixed-bucket histogram: `bounds` are ascending upper edges; observations
// above the last bound land in the implicit +Inf bucket. observe() is one
// linear scan over <= 16 doubles plus two relaxed atomic adds — used for
// merge/EM/analyze latencies (per-event, never per-packet).
class Histogram {
 public:
  void observe(double v) noexcept {
    std::size_t bucket = bounds_.size();
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      if (v <= bounds_[i]) {
        bucket = i;
        break;
      }
    }
    counts_[bucket].value.fetch_add(1, std::memory_order_relaxed);
    detail::atomic_add_double(sum_bits_, v);
  }

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  // Per-bucket (non-cumulative) counts; size() == bounds().size() + 1, the
  // final entry being the +Inf bucket.
  std::vector<std::uint64_t> bucket_counts() const {
    std::vector<std::uint64_t> out(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      out[i] = counts_[i].value.load(std::memory_order_relaxed);
    }
    return out;
  }
  std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& cell : counts_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  double sum() const noexcept {
    return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  }

  // Exponential bucket edges: start, start*factor, ... (`count` edges).
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);
  // The default latency ladder: 1us .. ~67s in x4 steps.
  static std::vector<double> latency_bounds() {
    return exponential_bounds(1e-6, 4.0, 13);
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  std::vector<double> bounds_;
  std::vector<detail::Cell> counts_;  // bounds_.size() + 1 (+Inf last)
  std::atomic<std::uint64_t> sum_bits_{std::bit_cast<std::uint64_t>(0.0)};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

// One (key, value) label pair; a metric series is identified by
// (name, labels). Example: {"shard", "3"}.
struct MetricLabel {
  std::string key;
  std::string value;
};

// Plain-data scrape result; see to_json().
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> bounds;
    std::vector<std::uint64_t> bucket_counts;  // non-cumulative, +Inf last
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  struct Sample {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<MetricLabel> labels;
    double value = 0.0;  // counter / gauge
    std::optional<HistogramData> histogram;
  };

  std::vector<Sample> samples;

  // {"schema": "fcm.metrics.v1", "metrics": [...]}; histogram buckets are
  // cumulative, with the last `le` spelled "+Inf".
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-global default registry; every built-in instrumentation site
  // writes here unless handed an explicit registry.
  static MetricsRegistry& global();

  // Get-or-create; the returned reference is stable for the registry's
  // lifetime. Re-registering the same (name, labels) returns the same
  // object; re-registering under a different kind is a logic error and
  // throws std::logic_error.
  Counter& counter(const std::string& name,
                   std::vector<MetricLabel> labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, std::vector<MetricLabel> labels = {},
               const std::string& help = "");
  // `bounds` must be ascending; only consulted on first registration.
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       std::vector<MetricLabel> labels = {},
                       const std::string& help = "");

  // Reads every registered series. Safe to call from any thread while
  // writers are hot (the acceptance gate for the sharded runtime).
  MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricKind kind;
    std::vector<MetricLabel> labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  // Requires mutex_ held. Lookup, kind check, and (in the callers) value
  // construction all happen inside one critical section so snapshot() and
  // concurrent same-series registrations never see a half-built Entry.
  Entry& find_or_create_locked(const std::string& name,
                               std::vector<MetricLabel> labels,
                               MetricKind kind, const std::string& help)
      FCM_REQUIRES(mutex_);

  mutable common::Mutex mutex_;
  // Deque-like stability: entries are never moved after creation.
  std::vector<std::unique_ptr<Entry>> entries_ FCM_GUARDED_BY(mutex_);
};

// Scoped wall-clock timer feeding a histogram in seconds.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) noexcept;
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::uint64_t start_ns_;
};

}  // namespace fcm::obs
