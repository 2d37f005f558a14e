#include "framework/fcm_framework.h"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.h"
#include "obs/metrics_registry.h"

namespace fcm::framework {

FcmFramework::FcmFramework(Options options) : options_(std::move(options)) {
  FCM_REQUIRE(
      !(options_.count_mode == CountMode::kBytes && options_.topk_entries > 0),
      "FcmFramework: byte counting requires the plain-FCM data plane");
  // Options::metrics is the single telemetry knob for the whole control
  // plane: thread it into the EM config so analyze()'s estimator honors it
  // (nullptr == fully uninstrumented, no global-registry fallback).
  options_.em.metrics = options_.metrics;
  if (options_.topk_entries > 0) {
    core::FcmTopK::Config config;
    config.fcm = options_.fcm;
    config.topk_entries = options_.topk_entries;
    with_topk_.emplace(config);
    if (options_.heavy_hitter_threshold > 0) {
      with_topk_->set_heavy_hitter_threshold(options_.heavy_hitter_threshold);
    }
  } else {
    plain_.emplace(options_.fcm);
    if (options_.heavy_hitter_threshold > 0) {
      plain_->set_heavy_hitter_threshold(options_.heavy_hitter_threshold);
    }
  }
}

const core::FcmSketch& FcmFramework::active_sketch() const {
  return with_topk_ ? with_topk_->sketch() : *plain_;
}

void FcmFramework::process(flow::FlowKey key) {
  if (with_topk_) {
    with_topk_->update(key);
  } else {
    plain_->update(key);
  }
}

void FcmFramework::process(const flow::Packet& packet) {
  if (options_.count_mode == CountMode::kBytes) {
    plain_->add(packet.key, packet.bytes);
  } else {
    process(packet.key);
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
  if (with_topk_) {
    // The filter's vote state machine is sequential; the batched kernel
    // serves the plain-FCM plane.
    for (const flow::FlowKey key : keys) with_topk_->update(key);
  } else {
    plain_->add_batch(keys);
  }
}

void FcmFramework::process_weighted(flow::FlowKey key, std::uint64_t count) {
  if (count == 0) return;
  if (with_topk_) {
    with_topk_->add_weighted(key, count);
  } else {
    plain_->add(key, count);
  }
}

std::uint64_t FcmFramework::flow_size(flow::FlowKey key) const {
  return with_topk_ ? with_topk_->query(key) : plain_->query(key);
}

double FcmFramework::cardinality() const {
  return with_topk_ ? with_topk_->estimate_cardinality()
                    : plain_->estimate_cardinality();
}

std::vector<flow::FlowKey> FcmFramework::heavy_hitters() const {
  if (with_topk_) {
    return with_topk_->heavy_hitters(options_.heavy_hitter_threshold);
  }
  const auto& set = plain_->heavy_hitters();
  return {set.begin(), set.end()};
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
  control::EmFsdEstimator em(control::convert_sketch(active_sketch()),
                             options_.em);
  report.fsd = em.run();
  if (with_topk_) {
    // Fold the filter's exact heavy flows into the recovered distribution.
    for (const auto& [key, count] : with_topk_->topk_flows()) {
      report.fsd.add_flows(static_cast<std::size_t>(with_topk_->query(key)), 1.0);
    }
  }
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
  FCM_REQUIRE(options_.topk_entries == other.options_.topk_entries,
              "FcmFramework::merge: mismatched Top-K geometries");
  FCM_REQUIRE(options_.count_mode == other.options_.count_mode,
              "FcmFramework::merge: mismatched count modes");
  FCM_REQUIRE(
      options_.heavy_hitter_threshold == other.options_.heavy_hitter_threshold,
      "FcmFramework::merge: mismatched heavy-hitter thresholds");
  if (with_topk_) {
    with_topk_->merge(*other.with_topk_);
  } else {
    plain_->merge(*other.plain_);
  }
}

void FcmFramework::requalify_heavy_hitters(std::uint64_t threshold) {
  options_.heavy_hitter_threshold = threshold;
  if (threshold == 0) return;
  if (with_topk_) {
    with_topk_->requalify_heavy_hitters(threshold);
  } else {
    plain_->requalify_heavy_hitters(threshold);
  }
}

void FcmFramework::reset() {
  if (with_topk_) {
    with_topk_->clear();
  } else {
    plain_->clear();
  }
}

std::size_t FcmFramework::memory_bytes() const {
  return with_topk_ ? with_topk_->memory_bytes() : plain_->memory_bytes();
}

void FcmFramework::check_invariants() const {
  FCM_ASSERT(plain_.has_value() != with_topk_.has_value(),
             "FcmFramework: exactly one data-plane variant must be active");
  if (with_topk_) {
    with_topk_->check_invariants();
  } else {
    plain_->check_invariants();
  }
}

}  // namespace fcm::framework
