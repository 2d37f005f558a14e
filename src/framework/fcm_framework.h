// The FCM framework (paper Figure 1): one FCM-Sketch in the data plane plus
// the control-plane pipeline (virtual counter conversion, EM, entropy, heavy
// change) behind one facade. This is the public API an application embeds;
// the examples/ directory shows it in use. Its state is linear, so
// frameworks merge bit-exactly (runtime shards, network vantages). FCM+TopK
// (§6) is the single-switch core::FcmTopK, whose FSD estimate is
// control::topk_fsd.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "controlplane/em.h"
#include "controlplane/heavy_change.h"
#include "fcm/fcm_sketch.h"
#include "flow/packet.h"
#include "obs/metrics_registry.h"

namespace fcm::agg {
class WireCodec;  // wire-format (de)serializer, the single state-access friend
}

namespace fcm::framework {

class FcmFramework {
 public:
  // What one packet adds to its flow's counter (§3.3: "the count can be
  // interpreted in different ways, e.g., bytes, packets").
  enum class CountMode { kPackets, kBytes };

  struct Options {
    core::FcmConfig fcm = core::FcmConfig::paper_default();
    // 0 disables on-path heavy-hitter tracking.
    std::uint64_t heavy_hitter_threshold = 0;
    CountMode count_mode = CountMode::kPackets;
    control::EmConfig em;
    // Telemetry sink for the control plane (analyze() counters/latency and,
    // threaded into em.metrics, the EM estimator's series). Defaults to the
    // process-global registry; nullptr runs fully uninstrumented — this is
    // the single knob: it OVERRIDES em.metrics, and the sharded runtime
    // propagates its own Options::metrics here so `metrics = nullptr` means
    // no registry is touched anywhere in the pipeline. Must outlive the
    // framework when non-null.
    obs::MetricsRegistry* metrics = &obs::MetricsRegistry::global();
  };

  explicit FcmFramework(Options options);

  // The Options each of `parts` partial frameworks runs when one logical
  // stream is split over them (runtime shards, network vantages): `options`
  // with the heavy-hitter threshold T lowered to ceil(T / parts). By
  // pigeonhole, a flow with total count >= T has >= ceil(T / parts) of it in
  // some part however the stream is split, and FCM never underestimates, so
  // the union of the parts' candidates cannot miss it; after merging the
  // parts, requalify_heavy_hitters(T) drops every candidate below T.
  // T == 0 (tracking off) stays 0.
  static Options part_options(const Options& options, std::size_t parts);

  // --- data plane -------------------------------------------------------
  void process(flow::FlowKey key);
  // In kBytes mode the packet's byte size is added; otherwise counts one.
  void process(const flow::Packet& packet);
  void process(std::span<const flow::Packet> packets);

  // Batched per-packet ingest (DESIGN.md §9): equivalent to process(key) for
  // each key in order, bit-exact. Runs FcmSketch::add_batch (bulk hashing,
  // level-1 prefetch, compacted level-1 and level-2 passes ahead of the
  // carry walk). The span overload of process() feeds packet keys through
  // this in kPackets mode; kBytes stays per-packet (the increment is
  // data-dependent).
  void process_batch(std::span<const flow::FlowKey> keys);

  // Weighted bulk insert: absorbs `count` units (packets in kPackets mode,
  // bytes in kBytes mode) of flow `key` in one call — the demotion path of
  // the datapath heavy-flow cache and the sharded runtime's cache flush
  // (DESIGN.md §12). Bit-exact equivalent to `count` separate unit inserts
  // (FCM counters are order-independent sums).
  void process_weighted(flow::FlowKey key, std::uint64_t count);

  // Data-plane queries (§3.3): available at line rate.
  std::uint64_t flow_size(flow::FlowKey key) const;
  double cardinality() const;
  // Recorded heavy-hitter candidates, in ascending key order.
  std::vector<flow::FlowKey> heavy_hitters() const;

  // --- control plane ------------------------------------------------------
  struct Report {
    control::FlowSizeDistribution fsd;
    double entropy = 0.0;
    double estimated_flows = 0.0;
    double cardinality = 0.0;
  };
  // Collects the sketch, converts to virtual counters, runs EM and derives
  // the generic statistics (§4). Expensive; run per measurement epoch.
  Report analyze() const;

  // Heavy-change detection across two collected epochs (§4.4): candidates
  // default to the union of both frameworks' heavy-hitter reports.
  static std::vector<flow::FlowKey> heavy_changes(const FcmFramework& window_a,
                                                  const FcmFramework& window_b,
                                                  std::uint64_t threshold);

  // Merges `other`'s data plane into this framework (FcmSketch::merge; see
  // DESIGN.md §7). Both frameworks must have been built from equivalent
  // Options — same FcmConfig, count mode, and heavy-hitter threshold
  // (ContractViolation otherwise). The merged state is bit-exact the state
  // of one framework fed both packet streams. The runtime's shard replicas
  // and the aggregation service's vantages merge through this.
  void merge(const FcmFramework& other);

  // Lifts the heavy-hitter threshold to `threshold` (e.g. from a per-shard
  // ceil(T/N) back to the global T after merging) and prunes recorded
  // candidates against the current counters. `threshold` must be positive
  // (ContractViolation otherwise, with nothing changed): tracking cannot be
  // switched off after construction.
  void requalify_heavy_hitters(std::uint64_t threshold);

  // The underlying FCM sketch (the data-plane structure behind the facade).
  // Read-only: used by the control plane, the sharded runtime's equivalence
  // tests, and benches.
  const core::FcmSketch& sketch() const { return sketch_; }

  // Resets the data plane for the next measurement window.
  void reset();

  const Options& options() const noexcept { return options_; }
  std::size_t memory_bytes() const { return sketch_.memory_bytes(); }

  // --- observability (DESIGN.md §8) ---------------------------------------
  // Overflow-promotion events in the sketch's trees (counted from the stage
  // arrays on each call, see FcmTree::overflow_promotion_count) and how
  // often linear counting hit its full-table guard (a plain counter). No
  // atomics on the hot path; the sharded runtime and the benches scrape
  // both into the obs::MetricsRegistry at epoch boundaries.
  std::uint64_t overflow_promotion_count() const {
    return sketch_.overflow_promotion_count();
  }
  std::uint64_t cardinality_saturation_count() const {
    return sketch_.cardinality_saturation_count();
  }

  // Deep invariants of the data plane (the sketch's trees).
  void check_invariants() const { sketch_.check_invariants(); }

  // Frameworks are copyable (keep a snapshot per epoch for heavy change)
  // and movable: a move hands over the sketch's buffers without copying.
  FcmFramework(const FcmFramework&) = default;
  FcmFramework& operator=(const FcmFramework&) = default;
  FcmFramework(FcmFramework&&) = default;
  FcmFramework& operator=(FcmFramework&&) = default;

 private:
  friend class ::fcm::agg::WireCodec;

  Options options_;
  core::FcmSketch sketch_;
};

}  // namespace fcm::framework
