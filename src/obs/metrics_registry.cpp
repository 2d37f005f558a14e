#include "obs/metrics_registry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace fcm::obs {

namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

// Shortest round-trippable double formatting (so bucket edges render as
// "0.1", not "0.10000000000000001"). Finite values only; see
// fmt_double_json and fmt_bucket_edge for the non-finite spellings.
std::string fmt_double(double v) {
  char buffer[64];
  for (const int precision : {15, 16, 17}) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, v);
    if (std::strtod(buffer, nullptr) == v) break;
  }
  return buffer;
}

// JSON has no NaN/Inf literal, so a non-finite value (a gauge set to a
// degenerate ratio, say) is emitted as null — visibly broken in scraped data
// rather than silently rewritten to a legitimate-looking number.
std::string fmt_double_json(double v) {
  if (!std::isfinite(v)) return "null";
  return fmt_double(v);
}

// A histogram bucket edge is a quoted `le` string, so a non-finite edge can
// keep its Prometheus spelling ("+Inf", as the implicit last bucket has).
std::string fmt_bucket_edge(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return fmt_double(v);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string render_labels_json(const std::vector<MetricLabel>& labels) {
  std::string out = "{";
  bool first = true;
  for (const MetricLabel& label : labels) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(label.key) + "\": \"" + json_escape(label.value) +
           "\"";
  }
  out += "}";
  return out;
}

std::string series_key(const std::string& name,
                       const std::vector<MetricLabel>& labels) {
  std::string key = name;
  for (const MetricLabel& label : labels) {
    key += '\x1f';
    key += label.key;
    key += '\x1e';
    key += label.value;
  }
  return key;
}

}  // namespace

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i - 1] >= bounds_[i]) {
      throw std::logic_error(
          "obs::Histogram: bucket bounds must be strictly ascending");
    }
  }
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t count) {
  if (!(start > 0.0) || !(factor > 1.0) || count == 0) {
    throw std::logic_error(
        "obs::Histogram::exponential_bounds: need start > 0, factor > 1, "
        "count >= 1");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  double edge = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

// --- MetricsSnapshot exporter ----------------------------------------------

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"fcm.metrics.v1\",\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    out << "    {\"name\": \"" << json_escape(s.name) << "\", \"kind\": \""
        << kind_name(s.kind) << "\", \"labels\": "
        << render_labels_json(s.labels);
    if (s.kind == MetricKind::kHistogram && s.histogram.has_value()) {
      const HistogramData& h = *s.histogram;
      out << ", \"count\": " << h.count
          << ", \"sum\": " << fmt_double_json(h.sum) << ", \"buckets\": [";
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
        cumulative += h.bucket_counts[b];
        if (b > 0) out << ", ";
        const std::string le =
            b < h.bounds.size() ? fmt_bucket_edge(h.bounds[b]) : "+Inf";
        out << "{\"le\": \"" << le << "\", \"count\": " << cumulative
            << "}";
      }
      out << "]";
    } else {
      out << ", \"value\": " << fmt_double_json(s.value);
    }
    out << "}";
    if (i + 1 < samples.size()) out << ",";
    out << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

// --- MetricsRegistry ---------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

// mutex_ must be held by the caller. The whole get-or-create — lookup, kind
// check, AND construction of the Counter/Gauge/Histogram value object (via
// `make_value`) — happens inside one critical section, so snapshot() and
// concurrent registrations of the same series can never observe an Entry
// whose value object is still being wired up (the registry's documented
// snapshot-while-hot safety contract depends on this).
MetricsRegistry::Entry& MetricsRegistry::find_or_create_locked(
    const std::string& name, std::vector<MetricLabel> labels, MetricKind kind,
    const std::string& help) {
  const std::string key = series_key(name, labels);
  for (const auto& entry : entries_) {
    if (entry->name == name && series_key(entry->name, entry->labels) == key) {
      if (entry->kind != kind) {
        throw std::logic_error("obs::MetricsRegistry: metric '" + name +
                               "' re-registered as a different kind");
      }
      return *entry;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->kind = kind;
  entry->labels = std::move(labels);
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  std::vector<MetricLabel> labels,
                                  const std::string& help) {
  common::MutexLock lock(mutex_);
  Entry& entry =
      find_or_create_locked(name, std::move(labels), MetricKind::kCounter, help);
  if (!entry.counter) entry.counter.reset(new Counter());
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              std::vector<MetricLabel> labels,
                              const std::string& help) {
  common::MutexLock lock(mutex_);
  Entry& entry =
      find_or_create_locked(name, std::move(labels), MetricKind::kGauge, help);
  if (!entry.gauge) entry.gauge.reset(new Gauge());
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      std::vector<MetricLabel> labels,
                                      const std::string& help) {
  common::MutexLock lock(mutex_);
  Entry& entry = find_or_create_locked(name, std::move(labels),
                                       MetricKind::kHistogram, help);
  if (!entry.histogram) {
    entry.histogram.reset(new Histogram(std::move(bounds)));
  }
  return *entry.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  common::MutexLock lock(mutex_);
  snap.samples.reserve(entries_.size());
  for (const auto& entry : entries_) {
    MetricsSnapshot::Sample sample;
    sample.name = entry->name;
    sample.help = entry->help;
    sample.kind = entry->kind;
    sample.labels = entry->labels;
    switch (entry->kind) {
      case MetricKind::kCounter:
        if (!entry->counter) continue;  // defensive: never constructed
        sample.value = static_cast<double>(entry->counter->value());
        break;
      case MetricKind::kGauge:
        if (!entry->gauge) continue;  // defensive: never constructed
        sample.value = entry->gauge->value();
        break;
      case MetricKind::kHistogram: {
        if (!entry->histogram) continue;  // defensive: never constructed
        MetricsSnapshot::HistogramData data;
        data.bounds = entry->histogram->bounds();
        data.bucket_counts = entry->histogram->bucket_counts();
        data.count = 0;
        for (const std::uint64_t c : data.bucket_counts) data.count += c;
        data.sum = entry->histogram->sum();
        sample.histogram = std::move(data);
        break;
      }
    }
    snap.samples.push_back(std::move(sample));
  }
  return snap;
}

// --- ScopedTimer -------------------------------------------------------------

namespace {
std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

ScopedTimer::ScopedTimer(Histogram* histogram) noexcept
    : histogram_(histogram), start_ns_(histogram ? now_ns() : 0) {}

ScopedTimer::~ScopedTimer() {
  if (histogram_ == nullptr) return;
  histogram_->observe(static_cast<double>(now_ns() - start_ns_) * 1e-9);
}

}  // namespace fcm::obs
