// Network-wide aggregation service (DESIGN.md §11): N vantage points each
// run a local FcmFramework, serialize it at epoch boundaries through the
// wire format (agg/wire.h), and deliver the buffer to one
// AggregationService, which validates the config fingerprint from the frame
// header alone, merges per-epoch with the bit-exact merge() from DESIGN.md
// §7, and publishes immutable NetworkViews through the QueryPlane.
//
// Delivery is a direct call: a vantage hands its SnapshotEnvelope to
// AggregationService::deliver(). The envelope is nothing but plain integers
// and wire-format bytes, so a transport that moves those bytes between
// processes can call deliver() on the receiving side.
//
// Fault posture (exercised by tests/test_agg_soak.cpp under TSan):
//  - out-of-order epochs buffer until their turn; publishes stay in epoch
//    order;
//  - a slow vantage stalls only its own epoch until max_pending_epochs is
//    exceeded, then the oldest epoch force-publishes partial (watchdog);
//  - a dropped vantage is handled the same way, or explicitly via
//    finalize_epoch();
//  - duplicate/stale/foreign-config/corrupt snapshots are rejected with a
//    typed status and counted in the registry, never merged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "agg/query_plane.h"
#include "agg/wire.h"
#include "common/thread_annotations.h"
#include "framework/fcm_framework.h"
#include "obs/metrics_registry.h"

namespace fcm::agg {

// One sketch snapshot in flight from a vantage point to the aggregator.
struct SnapshotEnvelope {
  std::uint32_t vantage_id = 0;
  std::uint64_t epoch = 0;
  // A complete FcmFramework wire frame as produced by WireCodec::serialize
  // (the one frame type; agg/wire.h).
  std::vector<std::byte> payload;
};

// Typed outcome of a delivery; everything except kAccepted leaves the
// service state untouched.
enum class DeliveryStatus {
  kAccepted,
  kRejectedFingerprint,     // snapshot built from incompatible Options
  kRejectedStale,           // epoch at or below the published watermark
  kRejectedDuplicate,       // this vantage already delivered this epoch
  kRejectedUnknownVantage,  // vantage_id >= configured vantage_count
  kRejectedMalformed,       // frame failed wire validation (ContractViolation)
};

const char* to_string(DeliveryStatus status) noexcept;

// The aggregator. deliver() is safe to call from any number of vantage
// threads concurrently; queries go through query_plane() and never contend
// with ingest beyond the plane's pointer-swap lock.
class AggregationService {
 public:
  struct Options {
    // The network-wide configuration. Vantages run vantage_options() —
    // `reference` split over vantage_count parts — and snapshots whose
    // header fingerprint differs from merge_fingerprint(vantage_options())
    // are rejected without deserialization. Frames carry counters only:
    // every snapshot is deserialized with vantage_options() as
    // deserialize_framework's `local`, which supplies its geometry, seeds,
    // count mode and threshold as well as `reference.em`, the analysis
    // policy of every published view, and `reference.metrics`, the
    // registry the merged network view analyzes through.
    framework::FcmFramework::Options reference;

    // Vantage ids are 0..vantage_count-1; an epoch is complete once every
    // id has delivered it. Epochs are numbered from 1: a complete later
    // epoch buffers until every epoch before it has published, so
    // out-of-order arrivals cannot leapfrog a slower epoch; the watchdog
    // and finalize_epoch() can still skip a gap.
    std::size_t vantage_count = 1;

    // Watchdog: when more than this many epochs sit pending (a vantage is
    // slow or gone), the oldest force-publishes partial so the query plane
    // keeps advancing. 0 disables forced publishes.
    std::size_t max_pending_epochs = 4;

    // The service is the one epoch engine for cross-epoch analytics (a
    // sharded runtime stops at its merged epoch; deliver that here).
    // 0 disables heavy-change detection between consecutive published
    // views.
    std::uint64_t heavy_change_threshold = 0;

    // Run the EM/analyze() pass at publish time and attach the Report to
    // the view. Epoch-scale work; leave off unless readers need FSD/entropy
    // without running analyze() themselves.
    bool analyze_on_publish = false;

    // Telemetry (DESIGN.md §8): snapshot/reject counters, per-vantage
    // bytes, merge/publish latency, staleness. nullptr runs uninstrumented;
    // the single-knob rule applies — this overrides reference.metrics.
    // Series carry no instance label: give each service its own registry.
    obs::MetricsRegistry* metrics = &obs::MetricsRegistry::global();
  };

  explicit AggregationService(Options options);
  ~AggregationService();

  AggregationService(const AggregationService&) = delete;
  AggregationService& operator=(const AggregationService&) = delete;

  // Validates, deserializes, and merges one snapshot; publishes every epoch
  // that completes as a result. Thread-safe.
  DeliveryStatus deliver(SnapshotEnvelope envelope);

  // Force-publishes `epoch` from whatever snapshots have arrived (the
  // dropped-vantage escape hatch). Returns false if the epoch is not
  // pending. Thread-safe.
  bool finalize_epoch(std::uint64_t epoch);

  // Force-publishes all pending epochs in order (end-of-run drain).
  void finalize_all();

  // The fingerprint deliveries must carry (what WireCodec stamps into
  // frames serialized under vantage_options()-compatible Options).
  std::uint64_t expected_fingerprint() const noexcept { return fingerprint_; }

  // The Options every vantage point must run:
  // FcmFramework::part_options(reference, vantage_count), i.e. heavy-hitter
  // candidates at ceil(T / vantage_count); the service re-qualifies the
  // merged union at the global T when it publishes (same scheme as the
  // sharded runtime, DESIGN.md §7).
  const framework::FcmFramework::Options& vantage_options() const noexcept {
    return vantage_options_;
  }

  // Snapshot-isolated read side. Typical reader:
  //   auto view = service.query_plane().current();
  //   if (view) use(view->network.flow_size(key));
  const QueryPlane& query_plane() const noexcept { return plane_; }

  // Epochs currently buffered waiting for stragglers (oldest first).
  std::vector<std::uint64_t> pending_epochs() const;

  const Options& options() const noexcept { return options_; }

 private:
  struct PendingEpoch {
    framework::FcmFramework merged;
    std::vector<std::uint32_t> vantages;  // sorted ids already merged
  };
  struct Instruments;

  // Merges `snapshot` into `epoch`'s pending state (starting it if new).
  DeliveryStatus absorb(std::uint32_t vantage_id, std::uint64_t epoch,
                        framework::FcmFramework&& snapshot,
                        std::size_t payload_bytes) FCM_REQUIRES(mutex_);
  // Publishes the oldest pending epochs: every complete one, plus partial
  // ones while the watchdog limit is exceeded.
  void publish_ready() FCM_REQUIRES(mutex_);
  // Builds the immutable view for the oldest pending epoch and installs it;
  // an incomplete epoch counts as a forced publish.
  void publish_oldest() FCM_REQUIRES(mutex_);

  Options options_;
  framework::FcmFramework::Options vantage_options_;
  std::uint64_t fingerprint_ = 0;
  QueryPlane plane_;
  std::unique_ptr<Instruments> instruments_;

  mutable common::Mutex mutex_;
  std::map<std::uint64_t, PendingEpoch> pending_ FCM_GUARDED_BY(mutex_);
  // Highest published epoch; deliveries at or below it are stale.
  std::optional<std::uint64_t> published_ FCM_GUARDED_BY(mutex_);
};

// A simulated vantage point: a local framework plus the aggregator it
// delivers to. Feed it traffic via framework(), then flush(epoch) to
// serialize the local state, ship it, and reset for the next epoch.
class VantagePoint {
 public:
  // `options` should equal the service's vantage_options() (up to local
  // policy: EM parameters and metrics sinks may differ and never leave the
  // vantage — the service analyzes under its own reference.em; geometry,
  // seeds, count mode and thresholds may not, or every flush is rejected
  // with kRejectedFingerprint). The service must outlive this.
  VantagePoint(std::uint32_t id, framework::FcmFramework::Options options,
               AggregationService& service);

  framework::FcmFramework& framework() noexcept { return framework_; }
  const framework::FcmFramework& framework() const noexcept {
    return framework_;
  }
  std::uint32_t id() const noexcept { return id_; }

  // Serializes the local sketch, delivers it as `epoch`, and — when the
  // delivery is accepted — resets the local state for the next epoch.
  DeliveryStatus flush(std::uint64_t epoch);

 private:
  std::uint32_t id_;
  framework::FcmFramework framework_;
  AggregationService& service_;
};

}  // namespace fcm::agg
