#include "fcm/fcm_sketch.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/contracts.h"

namespace fcm::core {

FcmSketch::FcmSketch(FcmConfig config) : config_(std::move(config)) {
  config_.validate();
  trees_.reserve(config_.tree_count);
  for (std::size_t t = 0; t < config_.tree_count; ++t) {
    trees_.emplace_back(
        config_, common::make_hash(config_.seed,
                                   common::checked_narrow<std::uint32_t>(t)));
  }
}

std::uint64_t FcmSketch::add(flow::FlowKey key, std::uint64_t count) {
  std::uint64_t estimate = std::numeric_limits<std::uint64_t>::max();
  for (auto& tree : trees_) {
    estimate = std::min(estimate, tree.add(key, count));
  }
  if (hh_threshold_ && estimate >= *hh_threshold_) {
    heavy_hitters_.insert(key);
  }
  return estimate;
}

void FcmSketch::add_batch(std::span<const flow::FlowKey> keys,
                          std::span<const std::uint64_t> weights) {
  FCM_REQUIRE(weights.empty() || weights.size() == keys.size(),
              "FcmSketch::add_batch: weights must match keys one for one");
  const std::size_t total = keys.size();
  if (total == 0) return;
  // Cross-tree software pipeline (DESIGN.md §9): for each kBatchBlock block,
  // EVERY tree hashes + prefetches before ANY tree applies, and block b+1 is
  // staged before block b is applied (double-buffered index blocks). Two
  // wins over running each tree across the whole span: the key block is
  // read from L1 once instead of each tree re-streaming the span from the
  // outer caches, and the outstanding prefetches of all trees overlap.
  // Each tree sees the blocks in stream order (trees touch disjoint state, so
  // interleaving trees between blocks is unobservable); inside a block,
  // apply_block keeps key order only when estimates are consumed. State
  // stays bit-exact either way (tests/test_batch_equivalence.cpp).
  constexpr std::size_t kMaxTrees = FcmConfig::kMaxTrees;
  FCM_ASSERT(trees_.size() <= kMaxTrees,
             "FcmSketch: tree count exceeds the batched kernel's stack buffers");
  const std::size_t tree_count = trees_.size();
  std::uint32_t idx_a[kMaxTrees][common::kBatchBlock];
  std::uint32_t idx_b[kMaxTrees][common::kBatchBlock];
  auto* cur = &idx_a;
  auto* next = &idx_b;
  const auto stage = [&](std::size_t base,
                         std::uint32_t (*out)[kMaxTrees][common::kBatchBlock]) {
    const std::size_t n = std::min(common::kBatchBlock, total - base);
    const auto block = keys.subspan(base, n);
    for (std::size_t t = 0; t < tree_count; ++t) {
      trees_[t].index_block(block, std::span<std::uint32_t>((*out)[t], n));
    }
    return n;
  };

  std::uint64_t estimates[common::kBatchBlock];
  std::size_t n = stage(0, cur);
  for (std::size_t base = 0; base < total;) {
    const std::size_t next_base = base + n;
    std::size_t next_n = 0;
    if (next_base < total) next_n = stage(next_base, next);
    const auto block_weights =
        weights.empty() ? weights : weights.subspan(base, n);
    // Only a heavy-hitter threshold consumes estimates: apply_block lowers
    // estimates[i] toward the per-tree minimum, checked once per key below.
    const std::span<std::uint64_t> block_estimates(estimates,
                                                   hh_threshold_ ? n : 0);
    std::fill(block_estimates.begin(), block_estimates.end(),
              std::numeric_limits<std::uint64_t>::max());
    for (std::size_t t = 0; t < tree_count; ++t) {
      trees_[t].apply_block(std::span<const std::uint32_t>((*cur)[t], n),
                            block_weights, block_estimates);
    }
    for (std::size_t i = 0; i < block_estimates.size(); ++i) {
      if (estimates[i] >= *hh_threshold_) heavy_hitters_.insert(keys[base + i]);
    }
    std::swap(cur, next);
    base = next_base;
    n = next_n;
  }
}

std::uint64_t FcmSketch::query(flow::FlowKey key) const noexcept {
  std::uint64_t estimate = std::numeric_limits<std::uint64_t>::max();
  for (const auto& tree : trees_) {
    estimate = std::min(estimate, tree.query(key));
  }
  return estimate;
}

void FcmSketch::merge(const FcmSketch& other) {
  FCM_REQUIRE(config_ == other.config_,
              "FcmSketch::merge: mismatched configs (geometry or seed differ)");
  FCM_REQUIRE(hh_threshold_ == other.hh_threshold_,
              "FcmSketch::merge: mismatched heavy-hitter thresholds");
  FCM_ASSERT(trees_.size() == other.trees_.size(),
             "FcmSketch::merge: tree count diverged between operands");
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    trees_[t].merge(other.trees_[t]);
  }
  // Union the per-shard candidates, then re-qualify against the merged
  // counters so flows below the threshold globally are dropped.
  heavy_hitters_.insert(other.heavy_hitters_.begin(),
                        other.heavy_hitters_.end());
  if (hh_threshold_) requalify_heavy_hitters(*hh_threshold_);
  cardinality_saturations_ += other.cardinality_saturations_;
}

void FcmSketch::requalify_heavy_hitters(std::uint64_t threshold) {
  FCM_REQUIRE(threshold > 0,
              "FcmSketch::requalify_heavy_hitters: threshold must be positive");
  hh_threshold_ = threshold;
  std::erase_if(heavy_hitters_, [&](const flow::FlowKey& key) {
    return query(key) < threshold;
  });
}

double FcmSketch::estimate_cardinality() const {
  const double w1 = static_cast<double>(config_.leaf_count);
  double empty_sum = 0.0;
  for (const auto& tree : trees_) {
    empty_sum += static_cast<double>(tree.empty_leaf_count());
  }
  double w0 = empty_sum / static_cast<double>(trees_.size());
  FCM_ASSERT(w0 >= 0.0 && w0 <= w1,
             "FcmSketch: empty-leaf average outside [0, w1]");
  // Linear-counting guard: a full table has no finite estimate. Saturate at
  // half an empty slot (the upper end of the estimable range) and record the
  // event so callers/benches can see how often the guard fired instead of
  // silently absorbing it.
  if (w0 < 0.5) {
    ++cardinality_saturations_;
    w0 = 0.5;
  }
  const double estimate = -w1 * std::log(w0 / w1);
  FCM_ENSURE(std::isfinite(estimate) && estimate >= 0.0,
             "FcmSketch: linear-counting estimate is not finite/non-negative");
  return estimate;
}

void FcmSketch::check_invariants() const {
  config_.validate();
  FCM_ASSERT(trees_.size() == config_.tree_count,
             "FcmSketch: tree count diverged from config (" +
                 std::to_string(trees_.size()) + " vs " +
                 std::to_string(config_.tree_count) + ")");
  for (const auto& tree : trees_) tree.check_invariants();
}

void FcmSketch::clear() {
  for (auto& tree : trees_) tree.clear();
  heavy_hitters_.clear();
  cardinality_saturations_ = 0;
}

}  // namespace fcm::core
