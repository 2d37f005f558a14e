#include "framework/fcm_framework.h"

#include <algorithm>

#include "common/contracts.h"
#include "obs/metrics_registry.h"

namespace fcm::framework {

FcmFramework::FcmFramework(Options options)
    : options_(std::move(options)), sketch_(options_.fcm) {
  // Options::metrics is the single telemetry knob for the whole control
  // plane: thread it into the EM config so analyze()'s estimator honors it
  // (nullptr == fully uninstrumented, no global-registry fallback).
  options_.em.metrics = options_.metrics;
  if (options_.heavy_hitter_threshold > 0) {
    sketch_.set_heavy_hitter_threshold(options_.heavy_hitter_threshold);
  }
}

void FcmFramework::process(flow::FlowKey key) { sketch_.update(key); }

void FcmFramework::process(const flow::Packet& packet) {
  if (options_.count_mode == CountMode::kBytes) {
    sketch_.add(packet.key, packet.bytes);
  } else {
    sketch_.update(packet.key);
  }
}

void FcmFramework::process(std::span<const flow::Packet> packets) {
  if (options_.count_mode == CountMode::kBytes) {
    // Byte counting adds a data-dependent increment per packet; the batched
    // kernel is per-packet (+1) only.
    for (const flow::Packet& packet : packets) process(packet);
    return;
  }
  // Strip keys into a stack block and run the batched kernel on it; the
  // copy is cheap next to the hashing it unlocks.
  flow::FlowKey keys[common::kBatchBlock];
  for (std::size_t base = 0; base < packets.size(); base += common::kBatchBlock) {
    const std::size_t n = std::min(common::kBatchBlock, packets.size() - base);
    for (std::size_t i = 0; i < n; ++i) keys[i] = packets[base + i].key;
    process_batch(std::span<const flow::FlowKey>(keys, n));
  }
}

void FcmFramework::process_batch(std::span<const flow::FlowKey> keys) {
  sketch_.add_batch(keys);
}

void FcmFramework::process_weighted(flow::FlowKey key, std::uint64_t count) {
  if (count == 0) return;
  sketch_.add(key, count);
}

std::uint64_t FcmFramework::flow_size(flow::FlowKey key) const {
  return sketch_.query(key);
}

double FcmFramework::cardinality() const {
  return sketch_.estimate_cardinality();
}

std::vector<flow::FlowKey> FcmFramework::heavy_hitters() const {
  // Sorted, so the report does not depend on the hash set's bucket layout.
  const auto& set = sketch_.heavy_hitters();
  std::vector<flow::FlowKey> keys(set.begin(), set.end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

FcmFramework::Report FcmFramework::analyze() const {
  // Per-epoch control-plane collection cost (DESIGN.md §8); analyze() runs
  // once per measurement window, so the registry lookups are negligible.
  // The configured sink (not the global singleton) is used so that
  // Options::metrics == nullptr really is uninstrumented — the throughput
  // bench's overhead baseline depends on that.
  obs::MetricsRegistry* registry = options_.metrics;
  if (registry != nullptr) {
    registry
        ->counter("fcm_framework_analyze_total", {},
                  "Control-plane analyze() collections")
        .inc();
  }
  const obs::ScopedTimer timer(
      registry != nullptr
          ? &registry->histogram("fcm_framework_analyze_seconds",
                                 obs::Histogram::latency_bounds(), {},
                                 "Wall time of one control-plane analyze() "
                                 "collection")
          : nullptr);
  Report report;
  report.fsd =
      control::EmFsdEstimator(control::convert_sketch(sketch_), options_.em)
          .run();
  report.entropy = report.fsd.entropy();
  report.estimated_flows = report.fsd.total_flows();
  report.cardinality = cardinality();
  return report;
}

FcmFramework::Options FcmFramework::part_options(const Options& options,
                                                std::size_t parts) {
  FCM_REQUIRE(parts >= 1, "FcmFramework::part_options: needs a part");
  const std::uint64_t threshold = options.heavy_hitter_threshold;
  Options part = options;
  part.heavy_hitter_threshold =
      threshold / parts + (threshold % parts != 0 ? 1 : 0);
  return part;
}

std::vector<flow::FlowKey> FcmFramework::heavy_changes(
    const FcmFramework& window_a, const FcmFramework& window_b,
    std::uint64_t threshold) {
  std::vector<flow::FlowKey> candidates = window_a.heavy_hitters();
  const std::vector<flow::FlowKey> candidates_b = window_b.heavy_hitters();
  candidates.insert(candidates.end(), candidates_b.begin(), candidates_b.end());
  return control::detect_heavy_changes(
      [&](flow::FlowKey key) { return window_a.flow_size(key); },
      [&](flow::FlowKey key) { return window_b.flow_size(key); }, candidates,
      threshold);
}

void FcmFramework::merge(const FcmFramework& other) {
  FCM_REQUIRE(options_.fcm == other.options_.fcm,
              "FcmFramework::merge: mismatched FCM configs");
  FCM_REQUIRE(options_.count_mode == other.options_.count_mode,
              "FcmFramework::merge: mismatched count modes");
  FCM_REQUIRE(
      options_.heavy_hitter_threshold == other.options_.heavy_hitter_threshold,
      "FcmFramework::merge: mismatched heavy-hitter thresholds");
  sketch_.merge(other.sketch_);
}

void FcmFramework::requalify_heavy_hitters(std::uint64_t threshold) {
  // The sketch refuses threshold 0 before anything changes.
  sketch_.requalify_heavy_hitters(threshold);
  options_.heavy_hitter_threshold = threshold;
}

void FcmFramework::reset() { sketch_.clear(); }

}  // namespace fcm::framework
