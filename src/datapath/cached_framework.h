// HeavyFlowCache in front of an FcmFramework — the serial composition of the
// datapath (DESIGN.md §12). Hot flows are absorbed exactly by the cache and
// never pay the multi-tree walk; evicted (cold) flows are demoted into the
// sketch as weighted adds. Queries see ONE coherent view:
//
//   - flow_size(f)  = exact resident count + sketch estimate. The sketch
//     holds a subset of the true traffic and never underestimates what it
//     holds, so truth(f) <= flow_size(f) <= a cache-off framework's estimate
//     (pointwise sandwich; the differential battery in
//     tests/test_datapath_differential.cpp proves both inequalities).
//   - snapshot() folds the cache into a COPY of the framework, yielding a
//     plain FcmFramework whose per-leaf counter sums equal a cache-off run's
//     bit for bit (FCM counters are order-independent sums), so epoch
//     pipelines (merge, EM/WMRE, heavy change) consume it unchanged. The
//     bit-exact claim covers the COUNTER state; the on-path heavy-hitter
//     ledger records flows when their own add crosses T and the cache
//     reschedules adds, so that ledger is trajectory-dependent (it still
//     never misses a truly heavy flow — the differential battery pins this).
//   - heavy_hitters() unions sketch-side detections with resident flows
//     whose combined count crosses the threshold, so a hot flow that never
//     touches the sketch is still reported.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "datapath/heavy_flow_cache.h"
#include "framework/fcm_framework.h"
#include "obs/metrics_registry.h"

namespace fcm::datapath {

class CachedFramework {
 public:
  struct Options {
    framework::FcmFramework::Options framework;
    HeavyFlowCache::Options cache;
    // Authoritative telemetry knob, propagated into framework.metrics like
    // the sharded runtime does; nullptr = fully uninstrumented.
    obs::MetricsRegistry* metrics = &obs::MetricsRegistry::global();
    std::string metrics_instance;
  };

  explicit CachedFramework(Options options);

  // --- data plane ---------------------------------------------------------
  void process(flow::FlowKey key);
  void process(const flow::Packet& packet);  // kBytes mode adds packet.bytes
  void process(std::span<const flow::Packet> packets);
  void process_batch(std::span<const flow::FlowKey> keys);

  // --- queries (combined cache + sketch view) -----------------------------
  std::uint64_t flow_size(flow::FlowKey key) const;
  std::vector<flow::FlowKey> heavy_hitters() const;

  // Cache folded into a copy of the framework: a self-contained serial
  // FcmFramework for the epoch pipeline (merge/analyze/WireCodec). Costs a
  // full sketch copy; call per epoch, not per packet. Also publishes the
  // cache series (CacheMetrics) to the registry.
  framework::FcmFramework snapshot() const;
  framework::FcmFramework::Report analyze() const { return snapshot().analyze(); }
  double cardinality() const { return snapshot().cardinality(); }

  // Empties the sketch and the cache. The cache counters stay cumulative,
  // like the sharded runtime's across rotations.
  void reset();

  const HeavyFlowCache& cache() const noexcept { return cache_; }
  const framework::FcmFramework& framework() const noexcept { return framework_; }
  const Options& options() const noexcept { return options_; }
  std::size_t memory_bytes() const {
    return framework_.memory_bytes() + cache_.memory_bytes();
  }

  void check_invariants() const;

 private:
  void offer(flow::FlowKey key, std::uint64_t count);

  Options options_;
  framework::FcmFramework framework_;
  HeavyFlowCache cache_;
  // Published from the const snapshot(); only its delta baselines change.
  mutable CacheMetrics metrics_;
};

}  // namespace fcm::datapath
