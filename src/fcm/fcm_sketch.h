// Multi-tree FCM-Sketch (paper §3): the data-plane structure.
//
// d independent trees are updated in parallel; a count-query returns the
// minimum per-tree estimate (as in Count-Min). Data-plane queries supported
// here: flow size (count-query), heavy-hitter detection (threshold crossing
// observed on update, as the switch would mirror it), and cardinality via
// linear counting over the leaf stage (§3.3).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "fcm/fcm_tree.h"

namespace fcm::core {

class FcmSketch {
 public:
  explicit FcmSketch(FcmConfig config);

  // Per-packet update; returns the post-update estimate (min over trees).
  // When a heavy-hitter threshold is set, flows whose estimate reaches it
  // are recorded, mirroring the data plane's on-path detection.
  std::uint64_t update(flow::FlowKey key) { return add(key, 1); }

  // Bulk insert of `count` packets of the same flow.
  std::uint64_t add(flow::FlowKey key, std::uint64_t count);

  // Batched update (DESIGN.md §9): equivalent to add(keys[i], weights[i])
  // for each key in order (update(keys[i]) when `weights` is empty;
  // otherwise it holds one weight per key), bit-exact — tree state and the
  // heavy-hitter set both match the scalar loop. Block by block, every tree
  // hashes and prefetches through FcmTree::index_block, then applies through
  // FcmTree::apply_block; with a heavy-hitter threshold, per-key min
  // estimates accumulate across trees so the check runs once per key.
  void add_batch(std::span<const flow::FlowKey> keys,
                 std::span<const std::uint64_t> weights = {});

  // Count-query (§3.2): min over trees. Never underestimates.
  std::uint64_t query(flow::FlowKey key) const noexcept;

  // Merges `other` into this sketch, tree by tree (see FcmTree::merge): the
  // merged state is bit-exact the state a single sketch would hold after
  // absorbing both packet streams, so sharded ingestion loses no accuracy.
  // Requires identical FcmConfig and identical heavy-hitter thresholds
  // (ContractViolation otherwise). Heavy-hitter sets are unioned, deduped,
  // and re-qualified against the *merged* counters: a candidate recorded by
  // one shard is dropped when its merged estimate is below the threshold.
  // Callers sharding a stream across N replicas should record with a
  // per-shard threshold of ceil(T/N) and re-qualify at T afterwards (see
  // requalify_heavy_hitters): a flow with true global count >= T has count
  // >= ceil(T/N) in some shard, so the union cannot miss it.
  void merge(const FcmSketch& other);

  // Tightens (or sets) the heavy-hitter threshold and prunes the recorded
  // set against the current counters: only flows whose estimate still
  // reaches `threshold` survive. Used after merge() to lift per-shard
  // thresholds back to the global one.
  void requalify_heavy_hitters(std::uint64_t threshold);

  // Linear-counting cardinality over stage-1 nodes (§3.3):
  // n̂ = -w1 * ln(w0/w1), with w0 averaged across trees. When every leaf is
  // occupied the formula has no finite value; the estimate saturates at the
  // guard w0 = 0.5 (half an empty slot) and the event is recorded in
  // cardinality_saturation_count() so benches can report how often linear
  // counting ran out of range.
  double estimate_cardinality() const;

  // How many estimate_cardinality() calls hit the full-table guard since
  // construction / the last clear().
  std::uint64_t cardinality_saturation_count() const noexcept {
    return cardinality_saturations_;
  }

  // Observability: total overflow-promotion events across all trees (see
  // FcmTree::overflow_promotion_count). Scraped into obs::MetricsRegistry by
  // the framework/runtime layers at epoch boundaries.
  std::uint64_t overflow_promotion_count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& tree : trees_) total += tree.overflow_promotion_count();
    return total;
  }

  // --- heavy hitters (data-plane query) ---
  void set_heavy_hitter_threshold(std::uint64_t threshold) {
    hh_threshold_ = threshold;
  }
  const std::unordered_set<flow::FlowKey>& heavy_hitters() const noexcept {
    return heavy_hitters_;
  }

  // --- introspection ---
  const FcmConfig& config() const noexcept { return config_; }
  std::size_t tree_count() const noexcept { return trees_.size(); }
  const FcmTree& tree(std::size_t i) const noexcept { return trees_[i]; }
  std::size_t memory_bytes() const noexcept { return config_.memory_bytes(); }

  // Deep invariants: config validity, tree-count consistency, and every
  // tree's structural invariants (see FcmTree::check_invariants).
  void check_invariants() const;

  void clear();

 private:
  friend class ::fcm::agg::WireCodec;

  FcmConfig config_;
  std::vector<FcmTree> trees_;
  std::optional<std::uint64_t> hh_threshold_;
  std::unordered_set<flow::FlowKey> heavy_hitters_;
  // Mutable: estimate_cardinality() is logically const; the counter is
  // observability metadata, not sketch state.
  mutable std::uint64_t cardinality_saturations_ = 0;
};

}  // namespace fcm::core
