// Snapshot-isolated query plane for the aggregation service (DESIGN.md §11).
//
// The AggregationService publishes one immutable NetworkView per completed
// epoch; readers grab a shared_ptr to the current view under a brief lock
// and then query it lock-free for as long as they hold the pointer — the
// double-buffered-generation pattern from ShardedFcmFramework. Ingest and
// merges never mutate a published view: publish() installs a *new*
// shared_ptr; concurrent readers keep whatever generation they already
// pinned (TSan-verified by tests/test_agg.cpp and the CI soak job). The
// plane holds only the current view; an older one lives exactly as long as
// some reader pins it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"
#include "framework/fcm_framework.h"

namespace fcm::agg {

// One published network-wide generation: the merged data plane plus the
// derived statistics frozen at publish time. Immutable after publication —
// every member is written exactly once, before the shared_ptr is installed.
struct NetworkView {
  std::uint64_t epoch = 0;

  // Vantage points whose snapshots were merged into this view (sorted). A
  // partial epoch (forced publish after a dropped vantage) lists fewer than
  // the service's configured vantage_count.
  std::vector<std::uint32_t> vantages;

  // The merged data plane. Flow size / cardinality / heavy hitters queries
  // go straight through it; analyze() may also be re-run by a reader that
  // wants fresh EM statistics on this frozen epoch.
  framework::FcmFramework network;

  // Derived at publish time.
  std::vector<flow::FlowKey> heavy_hitters;
  double cardinality = 0.0;

  // Flows whose size changed by at least the service's heavy-change
  // threshold vs the previously published view. Empty when no previous view
  // existed or heavy-change detection is disabled.
  std::vector<flow::FlowKey> heavy_changes;

  // EM-derived statistics (FSD, entropy); populated only when the service
  // runs with analyze_on_publish (the EM pass is epoch-scale work).
  std::optional<framework::FcmFramework::Report> report;

  explicit NetworkView(framework::FcmFramework merged)
      : network(std::move(merged)) {}
};

// Holder of the current generation. publish() and the readers synchronize
// on one mutex held only for a pointer swap; all actual query work happens
// outside the lock on immutable views.
class QueryPlane {
 public:
  // Installs `view` as the current generation. Views must arrive with
  // strictly increasing epochs (the service's in-order publish guarantees
  // it; ContractViolation otherwise).
  void publish(std::shared_ptr<const NetworkView> view);

  // The newest published generation; nullptr before the first publish.
  // Readers may hold the returned pointer arbitrarily long: a later
  // publish() never frees or mutates a pinned view.
  std::shared_ptr<const NetworkView> current() const;

 private:
  mutable common::Mutex mutex_;
  std::shared_ptr<const NetworkView> current_ FCM_GUARDED_BY(mutex_);
};

}  // namespace fcm::agg
