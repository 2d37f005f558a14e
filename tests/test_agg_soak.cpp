// Fault-injecting soak for the aggregation service (DESIGN.md §11; CI runs
// this under TSan in the soak job with a hard ctest TIMEOUT). Injected
// faults, all concurrent with a pool of query-plane readers:
//   - a slow vantage that lags the others by a few milliseconds per epoch;
//   - a vantage dropped entirely partway through the run (the watchdog
//     must keep the query plane advancing with partial epochs);
//   - out-of-order epoch delivery (one vantage shuffles its send order
//     within a sliding window);
//   - duplicate and truncated deliveries sprinkled in (must be rejected,
//     never merged, never crash a reader).
// Readers continuously pin the current view and check internal consistency
// (epoch monotonicity, sorted vantage sets, heavy hitters that really
// clear the threshold on the frozen counters).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "agg/agg_service.h"
#include "agg/wire.h"
#include "framework/fcm_framework.h"
#include "obs/metrics_registry.h"
#include "property_harness.h"

namespace fcm {
namespace {

using agg::AggregationService;
using agg::DeliveryStatus;
using agg::SnapshotEnvelope;
using agg::WireCodec;
using proptest::random_keys;

constexpr std::uint64_t kSeed = 0x50a7;
constexpr std::size_t kVantages = 4;
constexpr std::uint64_t kEpochs = 24;
constexpr std::uint64_t kDropAfterEpoch = 8;  // vantage 3 dies after this
constexpr std::uint64_t kHeavyChangeThreshold = 50;

framework::FcmFramework::Options reference_options() {
  framework::FcmFramework::Options options;
  options.fcm = proptest::small_fcm_config(kSeed);
  options.heavy_hitter_threshold = 64;
  options.metrics = nullptr;
  return options;
}

// Deterministic per-(vantage, epoch) traffic slice.
std::vector<flow::FlowKey> slice(std::uint32_t vantage, std::uint64_t epoch) {
  return random_keys(kSeed + vantage * 1'000 + epoch, 2'000, 500);
}

SnapshotEnvelope snapshot_for(const framework::FcmFramework::Options& options,
                              std::uint32_t vantage, std::uint64_t epoch) {
  framework::FcmFramework fw(options);
  for (const flow::FlowKey key : slice(vantage, epoch)) fw.process(key);
  SnapshotEnvelope envelope;
  envelope.vantage_id = vantage;
  envelope.epoch = epoch;
  envelope.payload = WireCodec::serialize(fw);
  return envelope;
}

TEST(AggSoak, SurvivesSlowDroppedAndOutOfOrderVantages) {
  obs::MetricsRegistry registry;
  AggregationService::Options options;
  options.reference = reference_options();
  options.vantage_count = kVantages;
  options.max_pending_epochs = 3;  // watchdog trips while vantage 3 is gone
  options.heavy_change_threshold = kHeavyChangeThreshold;
  options.metrics = &registry;
  AggregationService service(options);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rejected_faults{0};

  // --- readers -------------------------------------------------------------
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&service, &stop] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto view = service.query_plane().current();
        if (view == nullptr) continue;
        // Epochs only move forward.
        ASSERT_GE(view->epoch, last_epoch);
        last_epoch = view->epoch;
        // The merged vantage set is sorted, unique, and within range.
        ASSERT_FALSE(view->vantages.empty());
        ASSERT_LE(view->vantages.size(), kVantages);
        ASSERT_TRUE(std::is_sorted(view->vantages.begin(),
                                   view->vantages.end()));
        ASSERT_LT(view->vantages.back(), kVantages);
        // Derived fields were frozen at publish: every reported heavy
        // hitter clears the threshold on the view's own counters.
        for (const flow::FlowKey hh : view->heavy_hitters) {
          ASSERT_GE(view->network.flow_size(hh), 64u);
        }
        ASSERT_GE(view->cardinality, 0.0);
      }
    });
  }

  // --- writers (one per vantage, each with its own fault) ------------------
  std::vector<std::thread> writers;
  for (std::uint32_t v = 0; v < kVantages; ++v) {
    writers.emplace_back([&service, &rejected_faults, v] {
      // ceil(T/N) candidate threshold — anything else is a fingerprint
      // mismatch and every delivery would bounce.
      const framework::FcmFramework::Options vantage_opts =
          service.vantage_options();
      // Vantage 0 delivers out of order: epochs shuffled within windows of
      // three, plus a duplicate and a truncated frame each window.
      const bool chaotic = v == 0;
      const bool slow = v == 2;
      const bool dropped = v == 3;

      std::vector<std::uint64_t> schedule;
      const std::uint64_t horizon = dropped ? kDropAfterEpoch : kEpochs;
      for (std::uint64_t e = 1; e <= horizon; ++e) schedule.push_back(e);
      if (chaotic) {
        for (std::size_t base = 0; base + 3 <= schedule.size(); base += 3) {
          std::swap(schedule[base], schedule[base + 2]);
        }
      }

      for (const std::uint64_t epoch : schedule) {
        if (slow) std::this_thread::sleep_for(std::chrono::milliseconds(2));
        SnapshotEnvelope envelope = snapshot_for(vantage_opts, v, epoch);
        if (chaotic) {
          // Truncated duplicate first: must bounce as malformed.
          SnapshotEnvelope bad = envelope;
          bad.payload.resize(bad.payload.size() - 1);
          ASSERT_EQ(service.deliver(std::move(bad)),
                    DeliveryStatus::kRejectedMalformed);
          rejected_faults.fetch_add(1, std::memory_order_relaxed);
        }
        const SnapshotEnvelope replay = envelope;  // for the duplicate below
        const DeliveryStatus status = service.deliver(std::move(envelope));
        // Accepted normally; stale if the watchdog already advanced past
        // this epoch (expected for slow/out-of-order vantages).
        ASSERT_TRUE(status == DeliveryStatus::kAccepted ||
                    status == DeliveryStatus::kRejectedStale)
            << "vantage " << v << " epoch " << epoch << ": "
            << agg::to_string(status);
        if (chaotic && status == DeliveryStatus::kAccepted) {
          const DeliveryStatus dup = service.deliver(replay);
          ASSERT_TRUE(dup == DeliveryStatus::kRejectedDuplicate ||
                      dup == DeliveryStatus::kRejectedStale)
              << agg::to_string(dup);
          rejected_faults.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  service.finalize_all();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  // The plane reached the end of the run despite the dropped vantage...
  const auto view = service.query_plane().current();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch, kEpochs);
  EXPECT_TRUE(service.pending_epochs().empty());
  // ...the watchdog had to force partial epochs once vantage 3 vanished...
  EXPECT_GT(registry.counter("fcm_agg_forced_publishes_total").value(), 0u);
  // ...and the injected faults were all rejected, not merged.
  EXPECT_GT(rejected_faults.load(), 0u);
  const auto rejections =
      registry
          .counter("fcm_agg_snapshots_total",
                   {{"status", "rejected_malformed"}})
          .value() +
      registry
          .counter("fcm_agg_snapshots_total",
                   {{"status", "rejected_duplicate"}})
          .value() +
      registry
          .counter("fcm_agg_snapshots_total", {{"status", "rejected_stale"}})
          .value();
  EXPECT_GE(rejections, rejected_faults.load());

  // Deep invariants of the final published generation.
  view->network.check_invariants();
}

}  // namespace
}  // namespace fcm
