#include "support.h"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <fstream>
#include <sstream>

#include "metrics/metrics.h"

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

void Result::set(const std::string& name, double value, const std::string& unit,
                 std::size_t samples, const std::string& source) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric = Metric{name, value, unit, samples, source};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples, source});
}

bool Result::has(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return true;
  }
  return false;
}

void Result::param(const std::string& name, const std::string& value) {
  params_.emplace_back(name, value);
}

void Result::param(const std::string& name, double value) {
  std::ostringstream text;
  text.precision(17);
  text << value;
  params_.emplace_back(name, text.str());
}

void Result::record(const std::string& what, std::uint64_t attempted,
                    std::uint64_t failed) {
  ledger_.record(attempted, failed);
  if (failed > 0) {
    failures_.push_back(what + ": " + std::to_string(failed) + " of " +
                        std::to_string(attempted) + " failed");
  }
}

std::uint32_t Tracer::open(const char* name, std::uint64_t epoch) {
  Span span;
  span.name = name;
  span.start_s = now_s();
  span.end_s = -1.0;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.epoch = epoch;
  spans_.push_back(span);
  return span.id;
}

void Tracer::close(std::uint32_t id) { spans_[id - 1].end_s = now_s(); }

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end_s >= 0.0 && name == span.name) {
      out.push_back(span.end_s - span.start_s);
    }
  }
  return out;
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

bool write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(12);
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->spans()) {
      out << "{\"thread\":\"" << tracer->thread() << "\",\"name\":\""
          << span.name << "\",\"id\":" << span.id << ",\"epoch\":" << span.epoch
          << ",\"start_s\":" << span.start_s << ",\"end_s\":" << span.end_s
          << "}\n";
    }
  }
  return static_cast<bool>(out);
}

bool reset_peak_rss() {
  // Hand heap pages freed by set-up back to the kernel first; whether glibc
  // kept them varied between processes and moved the mark by 16 MiB.
  malloc_trim(0);
  std::ofstream refs("/proc/self/clear_refs");
  if (!refs) return false;
  refs << "5";
  refs.flush();
  return static_cast<bool>(refs);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

framework::FcmFramework::Options sketch_options(obs::MetricsRegistry* metrics) {
  framework::FcmFramework::Options options;
  options.fcm = core::FcmConfig::for_memory(kSketchBytes, 2, 8, {8, 16, 32});
  options.metrics = metrics;
  return options;
}

bool same_counter_state(const core::FcmSketch& a, const core::FcmSketch& b) {
  if (a.tree_count() != b.tree_count()) return false;
  for (std::size_t t = 0; t < a.tree_count(); ++t) {
    const core::FcmTree& ta = a.tree(t);
    const core::FcmTree& tb = b.tree(t);
    if (ta.config().stage_count() != tb.config().stage_count()) return false;
    for (std::size_t l = 1; l <= ta.config().stage_count(); ++l) {
      const auto sa = ta.stage(l);
      const auto sb = tb.stage(l);
      if (sa.size() != sb.size() ||
          std::memcmp(sa.data(), sb.data(), sa.size_bytes()) != 0) {
        return false;
      }
    }
  }
  return true;
}

void report_percentiles(Result& result, const std::string& prefix,
                        const std::string& unit, double scale,
                        const std::vector<double>& samples_s, bool mean) {
  const Distribution d = summarize(samples_s);
  if (mean) {
    result.set(prefix + "_mean_" + unit, trimmed_mean(samples_s, 0.1) * scale, unit,
               d.count);
  }
  result.set(prefix + "_p50_" + unit, d.p50 * scale, unit, d.count);
  if (d.p90) result.set(prefix + "_p90_" + unit, *d.p90 * scale, unit, d.count);
  if (d.p99) result.set(prefix + "_p99_" + unit, *d.p99 * scale, unit, d.count);
}

namespace {

// The key of popularity rank `rank`: a bijection of rank + 1, so labels are
// distinct and never 0.
flow::FlowKey rank_label(std::uint32_t rank) {
  std::uint32_t x = (rank + 1) * 0x9e3779b1u;
  x ^= x >> 16;
  return flow::FlowKey{x};
}

}  // namespace

RankLabels::RankLabels(std::span<const flow::FlowKey> keys) {
  std::size_t capacity = 1 << 16;
  const auto rebuild = [&](std::size_t new_capacity) {
    std::vector<flow::FlowKey> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_values = std::move(values_);
    keys_.assign(new_capacity, flow::FlowKey{0});
    values_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i].value == 0) continue;
      const std::size_t slot = slot_of(old_keys[i]);
      keys_[slot] = old_keys[i];
      values_[slot] = old_values[i];
    }
  };
  rebuild(capacity);
  for (const flow::FlowKey key : keys) {
    if (key.value == 0) throw std::invalid_argument("RankLabels: key 0");
    const std::size_t slot = slot_of(key);
    if (keys_[slot].value == 0) {
      keys_[slot] = key;
      if (++flows_ * 2 > capacity) {
        capacity *= 2;
        rebuild(capacity);
        ++values_[slot_of(key)];
        continue;
      }
    }
    ++values_[slot];
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_count;  // (count, key)
  by_count.reserve(flows_);
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i].value != 0) by_count.emplace_back(values_[i], keys_[i].value);
  }
  std::sort(by_count.begin(), by_count.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t rank = 0; rank < by_count.size(); ++rank) {
    values_[slot_of(flow::FlowKey{by_count[rank].second})] =
        rank_label(static_cast<std::uint32_t>(rank)).value;
  }
}

std::size_t RankLabels::slot_of(flow::FlowKey key) const {
  std::size_t slot = static_cast<std::size_t>(fcm::common::mix64(key.value)) & mask_;
  while (keys_[slot].value != 0 && keys_[slot].value != key.value) {
    slot = (slot + 1) & mask_;
  }
  return slot;
}

flow::FlowKey RankLabels::operator()(flow::FlowKey key) const {
  const std::size_t slot = slot_of(key);
  if (keys_[slot].value == 0) throw std::out_of_range("RankLabels: unknown flow");
  return flow::FlowKey{values_[slot]};
}

double flow_are(const std::unordered_map<flow::FlowKey, std::uint64_t>& truth,
                const framework::FcmFramework& sketch) {
  return metrics::size_errors(truth, [&](flow::FlowKey key) {
           return sketch.flow_size(key);
         }).are;
}

}  // namespace perfbench
