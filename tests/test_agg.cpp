// AggregationService + QueryPlane suite (DESIGN.md §11): multi-vantage
// merge equivalence against a serial framework, typed rejection of
// duplicate/stale/out-of-order/foreign/corrupt snapshots, in-order
// publishing, forced finalization (and its counter), snapshot isolation of
// pinned views and under concurrent readers, and the service's metrics
// series.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "agg/agg_service.h"
#include "agg/query_plane.h"
#include "agg/wire.h"
#include "controlplane/em.h"
#include "framework/fcm_framework.h"
#include "obs/metrics_registry.h"
#include "property_harness.h"

namespace fcm {
namespace {

using agg::AggregationService;
using agg::DeliveryStatus;
using agg::NetworkView;
using agg::SnapshotEnvelope;
using agg::VantagePoint;
using agg::WireCodec;
using proptest::random_keys;
using proptest::small_fcm_config;

constexpr std::uint64_t kSeed = 0xa66;
constexpr std::uint32_t kUniverse = 1'200;

framework::FcmFramework::Options reference_options() {
  framework::FcmFramework::Options options;
  options.fcm = small_fcm_config(kSeed);
  options.heavy_hitter_threshold = 64;
  options.metrics = nullptr;
  return options;
}

AggregationService::Options service_options(std::size_t vantages) {
  AggregationService::Options options;
  options.reference = reference_options();
  options.vantage_count = vantages;
  options.metrics = nullptr;
  return options;
}

SnapshotEnvelope envelope_for(const framework::FcmFramework& fw,
                              std::uint32_t vantage, std::uint64_t epoch) {
  SnapshotEnvelope envelope;
  envelope.vantage_id = vantage;
  envelope.epoch = epoch;
  envelope.payload = WireCodec::serialize(fw);
  return envelope;
}

TEST(AggregationServiceTest, MergedViewMatchesSerialFramework) {
  constexpr std::size_t kVantages = 4;
  AggregationService service(service_options(kVantages));

  std::vector<std::unique_ptr<VantagePoint>> vantages;
  for (std::uint32_t v = 0; v < kVantages; ++v) {
    vantages.push_back(std::make_unique<VantagePoint>(
        v, service.vantage_options(), service));
  }
  framework::FcmFramework serial(reference_options());

  const auto keys = random_keys(kSeed, 30'000, kUniverse);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    vantages[i % kVantages]->framework().process(keys[i]);
    serial.process(keys[i]);
  }
  for (auto& vantage : vantages) {
    ASSERT_EQ(vantage->flush(1), DeliveryStatus::kAccepted);
  }

  const auto view = service.query_plane().current();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch, 1u);
  EXPECT_EQ(view->vantages, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  // Plain-FCM merge is bit-exact, so the network-wide view answers exactly
  // like one framework that saw the whole trace.
  for (std::uint32_t id = 0; id < kUniverse; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(view->network.flow_size(key), serial.flow_size(key))
        << "key " << id;
  }
  EXPECT_EQ(view->cardinality, serial.cardinality());
  auto expected_hh = serial.heavy_hitters();
  auto got_hh = view->heavy_hitters;
  std::sort(expected_hh.begin(), expected_hh.end());
  std::sort(got_hh.begin(), got_hh.end());
  EXPECT_EQ(got_hh, expected_hh);
  // Accepting a flush resets the vantage for the next epoch.
  EXPECT_EQ(vantages[0]->framework().flow_size(keys.front()), 0u);
}

TEST(AggregationServiceTest, RejectsForeignStaleDuplicateAndMalformed) {
  AggregationService service(service_options(2));
  framework::FcmFramework fw(service.vantage_options());
  fw.process(flow::FlowKey{7});

  // Unknown vantage id.
  EXPECT_EQ(service.deliver(envelope_for(fw, 9, 1)),
            DeliveryStatus::kRejectedUnknownVantage);

  // Fingerprint mismatch: a vantage built with different geometry.
  auto foreign_options = reference_options();
  foreign_options.fcm.leaf_count *= 2;
  const framework::FcmFramework foreign(foreign_options);
  EXPECT_EQ(service.deliver(envelope_for(foreign, 0, 1)),
            DeliveryStatus::kRejectedFingerprint);

  // Malformed: truncated payload (past the header) and garbage bytes.
  SnapshotEnvelope truncated = envelope_for(fw, 0, 1);
  truncated.payload.resize(truncated.payload.size() - 3);
  EXPECT_EQ(service.deliver(std::move(truncated)),
            DeliveryStatus::kRejectedMalformed);
  SnapshotEnvelope garbage;
  garbage.payload.assign(40, std::byte{0x5a});
  EXPECT_EQ(service.deliver(std::move(garbage)),
            DeliveryStatus::kRejectedMalformed);

  // Duplicate: same vantage, same epoch, twice.
  EXPECT_EQ(service.deliver(envelope_for(fw, 0, 1)),
            DeliveryStatus::kAccepted);
  EXPECT_EQ(service.deliver(envelope_for(fw, 0, 1)),
            DeliveryStatus::kRejectedDuplicate);

  // Stale: complete epoch 1, then redeliver into it.
  EXPECT_EQ(service.deliver(envelope_for(fw, 1, 1)),
            DeliveryStatus::kAccepted);
  ASSERT_NE(service.query_plane().current(), nullptr);
  EXPECT_EQ(service.deliver(envelope_for(fw, 0, 1)),
            DeliveryStatus::kRejectedStale);

  // None of the rejections leaked into the published view.
  EXPECT_EQ(service.query_plane().current()->network.flow_size(flow::FlowKey{7}),
            2u);
}

// The first snapshot of an epoch becomes the pending merged framework, so
// the published view must not inherit that vantage's analysis policy: it
// analyzes under reference.em whichever vantage arrives first.
TEST(AggregationServiceTest, ViewAnalyzesUnderReferencePolicyInAnyOrder) {
  auto options = service_options(2);
  options.reference.em.max_iterations = 3;
  options.analyze_on_publish = true;

  const auto keys = random_keys(kSeed, 20'000, kUniverse);
  std::vector<std::shared_ptr<const NetworkView>> views;
  for (const bool reversed : {false, true}) {
    AggregationService service(options);
    // Vantage 0 runs 1 EM iteration, vantage 1 runs 10.
    std::vector<framework::FcmFramework> snapshots;
    for (const std::size_t iterations : {1u, 10u}) {
      auto local = service.vantage_options();
      local.em.max_iterations = iterations;
      snapshots.emplace_back(local);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      snapshots[i % 2].process(keys[i]);
    }
    for (std::uint32_t n = 0; n < 2; ++n) {
      const std::uint32_t v = reversed ? 1 - n : n;
      ASSERT_EQ(service.deliver(envelope_for(snapshots[v], v, 1)),
                DeliveryStatus::kAccepted);
    }
    views.push_back(service.query_plane().current());
    ASSERT_NE(views.back(), nullptr);
    ASSERT_TRUE(views.back()->report.has_value());
    const control::EmConfig& em = views.back()->network.options().em;
    EXPECT_EQ(em.max_iterations, options.reference.em.max_iterations)
        << "reversed=" << reversed;
    EXPECT_EQ(em.thread_count, options.reference.em.thread_count);
  }
  const auto& a = *views[0]->report;
  const auto& b = *views[1]->report;
  EXPECT_EQ(a.fsd.counts(), b.fsd.counts());
  EXPECT_EQ(a.entropy, b.entropy);
  EXPECT_EQ(a.estimated_flows, b.estimated_flows);
  EXPECT_EQ(a.cardinality, b.cardinality);
}

TEST(AggregationServiceTest, OutOfOrderEpochsPublishInOrder) {
  AggregationService service(service_options(2));
  framework::FcmFramework fw(service.vantage_options());
  fw.process(flow::FlowKey{3});

  // Epoch 2 completes first; it must wait for epoch 1.
  EXPECT_EQ(service.deliver(envelope_for(fw, 0, 2)), DeliveryStatus::kAccepted);
  EXPECT_EQ(service.deliver(envelope_for(fw, 1, 2)), DeliveryStatus::kAccepted);
  EXPECT_EQ(service.query_plane().current(), nullptr);
  EXPECT_EQ(service.pending_epochs(), (std::vector<std::uint64_t>{2}))
      << "epoch 2 buffers until the missing epoch 1 publishes";

  EXPECT_EQ(service.deliver(envelope_for(fw, 0, 1)), DeliveryStatus::kAccepted);
  EXPECT_EQ(service.query_plane().current(), nullptr);
  EXPECT_EQ(service.pending_epochs(), (std::vector<std::uint64_t>{1, 2}));
  // Completing epoch 1 releases both, in order: the query plane rejects a
  // publish whose epoch does not increase, so epoch 2 went out last.
  EXPECT_EQ(service.deliver(envelope_for(fw, 1, 1)), DeliveryStatus::kAccepted);
  const auto view = service.query_plane().current();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch, 2u);
  EXPECT_EQ(view->vantages, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_TRUE(service.pending_epochs().empty());
}

std::uint64_t forced_publishes(obs::MetricsRegistry& registry) {
  return registry.counter("fcm_agg_forced_publishes_total", {}).value();
}

TEST(AggregationServiceTest, WatchdogForcesPartialPublishes) {
  obs::MetricsRegistry registry;
  auto options = service_options(2);
  options.max_pending_epochs = 2;
  options.metrics = &registry;
  AggregationService service(std::move(options));
  framework::FcmFramework fw(service.vantage_options());
  fw.process(flow::FlowKey{11});

  // Vantage 1 went silent: vantage 0 keeps delivering epochs 1..3. At the
  // third pending epoch the watchdog force-publishes the oldest, partial.
  EXPECT_EQ(service.deliver(envelope_for(fw, 0, 1)), DeliveryStatus::kAccepted);
  EXPECT_EQ(service.deliver(envelope_for(fw, 0, 2)), DeliveryStatus::kAccepted);
  EXPECT_EQ(service.query_plane().current(), nullptr);
  EXPECT_EQ(service.deliver(envelope_for(fw, 0, 3)), DeliveryStatus::kAccepted);
  const auto view = service.query_plane().current();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch, 1u);
  EXPECT_EQ(view->vantages, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(forced_publishes(registry), 1u);

  // The straggler's late snapshot for the published epoch is now stale.
  EXPECT_EQ(service.deliver(envelope_for(fw, 1, 1)),
            DeliveryStatus::kRejectedStale);
}

TEST(AggregationServiceTest, FinalizeEpochDrainsDroppedVantage) {
  obs::MetricsRegistry registry;
  auto options = service_options(3);
  options.metrics = &registry;
  AggregationService service(std::move(options));
  framework::FcmFramework fw(service.vantage_options());
  fw.process(flow::FlowKey{5});

  EXPECT_EQ(service.deliver(envelope_for(fw, 0, 1)), DeliveryStatus::kAccepted);
  EXPECT_EQ(service.deliver(envelope_for(fw, 2, 1)), DeliveryStatus::kAccepted);
  EXPECT_FALSE(service.finalize_epoch(4)) << "unknown epochs report false";
  EXPECT_TRUE(service.finalize_epoch(1));
  const auto view = service.query_plane().current();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch, 1u);
  EXPECT_EQ(view->vantages, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(view->network.flow_size(flow::FlowKey{5}), 2u);
  EXPECT_EQ(forced_publishes(registry), 1u);
}

TEST(AggregationServiceTest, HeavyChangeBetweenPublishedEpochs) {
  auto options = service_options(1);
  options.heavy_change_threshold = 500;
  AggregationService service(std::move(options));
  VantagePoint vantage(0, service.vantage_options(), service);

  // Epoch 1: flow 1 heavy. Epoch 2: flow 2 takes over — a heavy change.
  for (int i = 0; i < 800; ++i) vantage.framework().process(flow::FlowKey{1});
  ASSERT_EQ(vantage.flush(1), DeliveryStatus::kAccepted);
  for (int i = 0; i < 800; ++i) vantage.framework().process(flow::FlowKey{2});
  ASSERT_EQ(vantage.flush(2), DeliveryStatus::kAccepted);

  const auto view = service.query_plane().current();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch, 2u);
  auto changes = view->heavy_changes;
  std::sort(changes.begin(), changes.end());
  EXPECT_EQ(changes,
            (std::vector<flow::FlowKey>{flow::FlowKey{1}, flow::FlowKey{2}}));
}

TEST(QueryPlaneTest, PinnedViewSurvivesLaterPublishes) {
  AggregationService service(service_options(1));
  VantagePoint vantage(0, service.vantage_options(), service);

  std::shared_ptr<const NetworkView> pinned;
  for (std::uint64_t epoch = 1; epoch <= 6; ++epoch) {
    vantage.framework().process(flow::FlowKey{static_cast<std::uint32_t>(epoch)});
    ASSERT_EQ(vantage.flush(epoch), DeliveryStatus::kAccepted);
    if (epoch == 1) pinned = service.query_plane().current();
  }
  // The plane moved on to epoch 6...
  const auto current = service.query_plane().current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->epoch, 6u);
  EXPECT_EQ(current->network.flow_size(flow::FlowKey{1}), 0u);
  // ...but the reader that pinned epoch 1 still holds an intact, immutable
  // view.
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->epoch, 1u);
  EXPECT_EQ(pinned->network.flow_size(flow::FlowKey{1}), 1u);
  EXPECT_EQ(pinned->network.flow_size(flow::FlowKey{6}), 0u);
}

TEST(AggregationServiceTest, ConcurrentReadersDuringIngest) {
  constexpr std::size_t kVantages = 2;
  constexpr std::uint64_t kEpochs = 20;
  auto options = service_options(kVantages);
  // Views must aggregate every vantage so readers can assert exact lower
  // bounds: no watchdog, epochs publish only when complete.
  options.max_pending_epochs = 0;
  AggregationService service(std::move(options));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::vector<std::uint64_t> last_seen(4, 0);
  for (std::size_t r = 0; r < last_seen.size(); ++r) {
    readers.emplace_back([&service, &stop, &last_seen, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto view = service.query_plane().current();
        if (view == nullptr) continue;
        // Published epochs only move forward, and a view is internally
        // consistent no matter when it was pinned.
        EXPECT_GE(view->epoch, last_seen[r]);
        last_seen[r] = view->epoch;
        EXPECT_GE(view->network.flow_size(flow::FlowKey{1}),
                  view->epoch * kVantages);
      }
    });
  }

  std::vector<std::thread> writers;
  for (std::uint32_t v = 0; v < kVantages; ++v) {
    writers.emplace_back([&service, v] {
      framework::FcmFramework accumulated(service.vantage_options());
      for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
        // Cumulative state (no reset) so readers can assert a lower bound
        // that grows with the epoch number.
        accumulated.process(flow::FlowKey{1});
        SnapshotEnvelope envelope;
        envelope.vantage_id = v;
        envelope.epoch = epoch;
        envelope.payload = WireCodec::serialize(accumulated);
        EXPECT_EQ(service.deliver(std::move(envelope)),
                  DeliveryStatus::kAccepted);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  const auto view = service.query_plane().current();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch, kEpochs);
  EXPECT_EQ(view->network.flow_size(flow::FlowKey{1}), kEpochs * kVantages);
}

TEST(AggregationServiceTest, MetricsRecordOutcomesAndWatermark) {
  obs::MetricsRegistry registry;
  auto options = service_options(2);
  options.metrics = &registry;
  AggregationService service(std::move(options));
  framework::FcmFramework fw(service.vantage_options());
  fw.process(flow::FlowKey{1});

  ASSERT_EQ(service.deliver(envelope_for(fw, 0, 1)), DeliveryStatus::kAccepted);
  ASSERT_EQ(service.deliver(envelope_for(fw, 0, 1)),
            DeliveryStatus::kRejectedDuplicate);
  ASSERT_EQ(service.deliver(envelope_for(fw, 1, 1)), DeliveryStatus::kAccepted);

  const auto labeled = [&](const char* status) {
    return registry.counter("fcm_agg_snapshots_total", {{"status", status}})
        .value();
  };
  EXPECT_EQ(labeled("accepted"), 2u);
  EXPECT_EQ(labeled("rejected_duplicate"), 1u);
  EXPECT_EQ(registry.gauge("fcm_agg_published_epoch").value(), 1.0);
  EXPECT_GT(
      registry.counter("fcm_agg_vantage_bytes_total", {{"vantage", "0"}})
          .value(),
      0u);
  // One merge per non-first snapshot of the epoch.
  EXPECT_EQ(registry
                .histogram("fcm_agg_merge_seconds",
                           obs::Histogram::latency_bounds())
                .count(),
            1u);
}

}  // namespace
}  // namespace fcm
