#include "agg/agg_service.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "common/contracts.h"

namespace fcm::agg {

const char* to_string(DeliveryStatus status) noexcept {
  switch (status) {
    case DeliveryStatus::kAccepted:
      return "accepted";
    case DeliveryStatus::kRejectedFingerprint:
      return "rejected_fingerprint";
    case DeliveryStatus::kRejectedStale:
      return "rejected_stale";
    case DeliveryStatus::kRejectedDuplicate:
      return "rejected_duplicate";
    case DeliveryStatus::kRejectedUnknownVantage:
      return "rejected_unknown_vantage";
    case DeliveryStatus::kRejectedMalformed:
      return "rejected_malformed";
  }
  return "unknown";
}

namespace {

// Vantages number their epochs from 1 (VantagePoint::flush callers, and a
// sharded runtime's epoch index + 1).
constexpr std::uint64_t kFirstEpoch = 1;

constexpr DeliveryStatus kAllStatuses[] = {
    DeliveryStatus::kAccepted,          DeliveryStatus::kRejectedFingerprint,
    DeliveryStatus::kRejectedStale,     DeliveryStatus::kRejectedDuplicate,
    DeliveryStatus::kRejectedUnknownVantage,
    DeliveryStatus::kRejectedMalformed,
};

}  // namespace

// Registry series the service writes (DESIGN.md §8). Handles resolved once
// at construction; deliver() touches only relaxed atomic cells. Null when
// Options::metrics == nullptr.
struct AggregationService::Instruments {
  // One counter per DeliveryStatus, indexed by the enum's value.
  std::array<obs::Counter*, std::size(kAllStatuses)> by_status{};
  std::vector<obs::Counter*> vantage_bytes;  // one series per vantage id
  obs::Histogram* merge_seconds = nullptr;    // per-snapshot merge time
  obs::Histogram* publish_seconds = nullptr;  // view build + install time
  obs::Gauge* published_epoch = nullptr;      // watermark
  obs::Gauge* pending_epochs = nullptr;       // epochs buffered
  obs::Gauge* staleness_epochs = nullptr;     // newest pending - watermark
  obs::Counter* forced_publishes = nullptr;   // watchdog/finalize publishes
};

AggregationService::AggregationService(Options options)
    : options_(std::move(options)) {
  FCM_REQUIRE(options_.vantage_count >= 1,
              "AggregationService needs at least one vantage point");
  // Single-knob metrics rule: Options::metrics overrides the reference
  // framework's sink, so metrics = nullptr silences the whole service.
  options_.reference.metrics = options_.metrics;
  // Vantage replicas record heavy-hitter candidates at ceil(T / N);
  // publish_oldest() re-qualifies the merged union at the global T.
  vantage_options_ = framework::FcmFramework::part_options(
      options_.reference, options_.vantage_count);
  fingerprint_ = WireCodec::merge_fingerprint(vantage_options_);

  obs::MetricsRegistry* registry = options_.metrics;
  if (registry == nullptr) return;
  auto instruments = std::make_unique<Instruments>();
  for (const DeliveryStatus status : kAllStatuses) {
    instruments->by_status[static_cast<std::size_t>(status)] =
        &registry->counter("fcm_agg_snapshots_total",
                           {{"status", to_string(status)}},
                           "Snapshot deliveries by outcome");
  }
  instruments->vantage_bytes.reserve(options_.vantage_count);
  for (std::size_t v = 0; v < options_.vantage_count; ++v) {
    instruments->vantage_bytes.push_back(
        &registry->counter("fcm_agg_vantage_bytes_total",
                           {{"vantage", std::to_string(v)}},
                           "Wire bytes accepted per vantage point"));
  }
  instruments->merge_seconds = &registry->histogram(
      "fcm_agg_merge_seconds", obs::Histogram::latency_bounds(), {},
      "Per-snapshot deserialize-free merge time into the pending epoch");
  instruments->publish_seconds = &registry->histogram(
      "fcm_agg_publish_seconds", obs::Histogram::latency_bounds(), {},
      "View derivation (HH, cardinality, heavy change, optional EM) + "
      "install time per published epoch");
  instruments->published_epoch = &registry->gauge(
      "fcm_agg_published_epoch", {},
      "Highest epoch published to the query plane (the staleness watermark)");
  instruments->pending_epochs = &registry->gauge(
      "fcm_agg_pending_epochs", {},
      "Epochs buffered waiting for straggler vantage points");
  instruments->staleness_epochs = &registry->gauge(
      "fcm_agg_staleness_epochs", {},
      "Newest pending epoch minus the published watermark (how far the "
      "query plane lags ingest)");
  instruments->forced_publishes = &registry->counter(
      "fcm_agg_forced_publishes_total", {},
      "Epochs published partial (watchdog overflow or finalize calls)");
  instruments_ = std::move(instruments);
}

AggregationService::~AggregationService() = default;

DeliveryStatus AggregationService::deliver(SnapshotEnvelope envelope) {
  const auto reject = [&](DeliveryStatus status) {
    if (instruments_ != nullptr) {
      instruments_->by_status[static_cast<std::size_t>(status)]->inc();
    }
    return status;
  };

  // Header checks need no lock and no deserialization: a snapshot from an
  // incompatible deployment bounces off 24 bytes.
  WireHeader header;
  try {
    header = WireCodec::peek(envelope.payload);
  } catch (const common::ContractViolation&) {
    return reject(DeliveryStatus::kRejectedMalformed);
  }
  if (header.fingerprint != fingerprint_) {
    return reject(DeliveryStatus::kRejectedFingerprint);
  }
  if (envelope.vantage_id >= options_.vantage_count) {
    return reject(DeliveryStatus::kRejectedUnknownVantage);
  }

  // Deserialize outside the lock: it is the expensive part, and running it
  // concurrently across vantage threads is the point of the design. A
  // buffer truncated or bit-flipped past the header fails validation here;
  // the service signals it via the status and never throws on hostile
  // input. The snapshot analyzes under this service's policy
  // (reference.em), whichever vantage's frame starts the epoch.
  std::optional<framework::FcmFramework> snapshot;
  try {
    snapshot.emplace(
        WireCodec::deserialize_framework(envelope.payload, vantage_options_));
  } catch (const common::ContractViolation&) {
    return reject(DeliveryStatus::kRejectedMalformed);
  }

  common::MutexLock lock(mutex_);
  const DeliveryStatus status = absorb(envelope.vantage_id, envelope.epoch,
                                       std::move(*snapshot),
                                       envelope.payload.size());
  if (status == DeliveryStatus::kAccepted) publish_ready();
  if (instruments_ != nullptr) {
    instruments_->by_status[static_cast<std::size_t>(status)]->inc();
  }
  return status;
}

DeliveryStatus AggregationService::absorb(std::uint32_t vantage_id,
                                          std::uint64_t epoch,
                                          framework::FcmFramework&& snapshot,
                                          std::size_t payload_bytes) {
  if (published_.has_value() && epoch <= *published_) {
    return DeliveryStatus::kRejectedStale;
  }
  auto it = pending_.find(epoch);
  if (it == pending_.end()) {
    PendingEpoch entry{std::move(snapshot), {vantage_id}};
    pending_.emplace(epoch, std::move(entry));
  } else {
    PendingEpoch& entry = it->second;
    if (std::binary_search(entry.vantages.begin(), entry.vantages.end(),
                           vantage_id)) {
      return DeliveryStatus::kRejectedDuplicate;
    }
    {
      obs::ScopedTimer timer(instruments_ ? instruments_->merge_seconds
                                          : nullptr);
      entry.merged.merge(snapshot);
    }
    entry.vantages.insert(std::upper_bound(entry.vantages.begin(),
                                           entry.vantages.end(), vantage_id),
                          vantage_id);
  }
  if (instruments_ != nullptr) {
    instruments_->vantage_bytes[vantage_id]->inc(payload_bytes);
    instruments_->pending_epochs->set(static_cast<double>(pending_.size()));
    const std::uint64_t newest = pending_.rbegin()->first;
    const std::uint64_t watermark = published_.value_or(0);
    instruments_->staleness_epochs->set(
        static_cast<double>(newest - std::min(newest, watermark)));
  }
  return DeliveryStatus::kAccepted;
}

void AggregationService::publish_ready() {
  while (!pending_.empty()) {
    const std::uint64_t next =
        published_.has_value() ? *published_ + 1 : kFirstEpoch;
    // Complete AND next in sequence: a complete epoch still waits while an
    // earlier epoch (possibly not yet started) could arrive. The watchdog
    // skips the gap when the buffer overflows.
    const bool ready =
        pending_.begin()->second.vantages.size() == options_.vantage_count &&
        pending_.begin()->first <= next;
    const bool overflow = options_.max_pending_epochs > 0 &&
                          pending_.size() > options_.max_pending_epochs;
    if (!ready && !overflow) break;
    publish_oldest();
  }
}

void AggregationService::publish_oldest() {
  obs::ScopedTimer timer(instruments_ ? instruments_->publish_seconds
                                      : nullptr);
  auto oldest = pending_.begin();
  const std::uint64_t epoch = oldest->first;
  // Every path that publishes an incomplete epoch (watchdog, finalize)
  // comes through here.
  if (oldest->second.vantages.size() != options_.vantage_count &&
      instruments_ != nullptr) {
    instruments_->forced_publishes->inc();
  }
  // The merged state carries the per-vantage ceil(T/N) candidate set;
  // promote it to the network-wide threshold before freezing the view.
  const std::uint64_t global_t = options_.reference.heavy_hitter_threshold;
  if (global_t > 0) {
    oldest->second.merged.requalify_heavy_hitters(global_t);
  }
  auto view = std::make_shared<NetworkView>(std::move(oldest->second.merged));
  view->epoch = epoch;
  view->vantages = std::move(oldest->second.vantages);
  pending_.erase(oldest);

  view->heavy_hitters = view->network.heavy_hitters();
  view->cardinality = view->network.cardinality();
  if (options_.heavy_change_threshold > 0) {
    if (const auto previous = plane_.current(); previous != nullptr) {
      view->heavy_changes = framework::FcmFramework::heavy_changes(
          previous->network, view->network, options_.heavy_change_threshold);
    }
  }
  if (options_.analyze_on_publish) view->report = view->network.analyze();

  plane_.publish(view);
  published_ = epoch;
  if (instruments_ != nullptr) {
    instruments_->published_epoch->set(static_cast<double>(epoch));
    instruments_->pending_epochs->set(static_cast<double>(pending_.size()));
  }
}

bool AggregationService::finalize_epoch(std::uint64_t epoch) {
  common::MutexLock lock(mutex_);
  if (pending_.find(epoch) == pending_.end()) return false;
  // Publishes stay in epoch order: older pending epochs (also stragglers,
  // or this call would not be needed) go out first, partial.
  while (!pending_.empty() && pending_.begin()->first <= epoch) {
    publish_oldest();
  }
  // Forcing the watermark forward may have made later buffered epochs
  // complete-and-oldest; publish them too.
  publish_ready();
  return true;
}

void AggregationService::finalize_all() {
  common::MutexLock lock(mutex_);
  while (!pending_.empty()) publish_oldest();
}

std::vector<std::uint64_t> AggregationService::pending_epochs() const {
  common::MutexLock lock(mutex_);
  std::vector<std::uint64_t> epochs;
  epochs.reserve(pending_.size());
  for (const auto& [epoch, entry] : pending_) epochs.push_back(epoch);
  return epochs;
}

VantagePoint::VantagePoint(std::uint32_t id,
                           framework::FcmFramework::Options options,
                           AggregationService& service)
    : id_(id), framework_(std::move(options)), service_(service) {}

DeliveryStatus VantagePoint::flush(std::uint64_t epoch) {
  SnapshotEnvelope envelope;
  envelope.vantage_id = id_;
  envelope.epoch = epoch;
  envelope.payload = WireCodec::serialize(framework_);
  const DeliveryStatus status = service_.deliver(std::move(envelope));
  if (status == DeliveryStatus::kAccepted) framework_.reset();
  return status;
}

}  // namespace fcm::agg
