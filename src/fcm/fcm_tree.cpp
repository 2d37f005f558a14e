#include "fcm/fcm_tree.h"

#include <algorithm>
#include <string>

#include "common/bitutil.h"
#include "common/contracts.h"

namespace fcm::core {

FcmTree::FcmTree(const FcmConfig& config, common::SeededHash hash)
    : config_(config), hash_(hash) {
  config_.validate();
  k_ = common::checked_narrow<std::uint32_t>(config_.k);
  const std::size_t levels = config_.stage_count();
  stages_.resize(levels);
  counting_max_.resize(levels);
  marker_.resize(levels);
  for (std::size_t l = 1; l <= levels; ++l) {
    stages_[l - 1].assign(config_.width(l), 0);
    counting_max_[l - 1] =
        common::checked_narrow<std::uint32_t>(config_.counting_max(l));
    marker_[l - 1] = counting_max_[l - 1] + 1;
  }
}

std::uint64_t FcmTree::add_at(std::size_t index, std::uint64_t count) {
  std::uint64_t estimate = 0;
  std::uint64_t carry = count;
  const std::size_t levels = stages_.size();

  for (std::size_t l = 0; l < levels; ++l) {
    auto& node = stages_[l][index];
    const std::uint64_t cap = counting_max_[l];
    const std::uint64_t mark = marker_[l];

    if (node == mark) {
      // Already overflowed: everything carries forward (Algorithm 1 skips
      // the increment and recurses).
      estimate += cap;
    } else {
      const std::uint64_t room = cap - node;
      if (carry <= room) {
        node = common::checked_narrow<std::uint32_t>(node + carry);
        estimate += node;
        return estimate;
      }
      // The increments fill the node and trip the overflow marker; the
      // remainder (including the tripping increment) carries forward.
      carry -= room;
      node = common::checked_narrow<std::uint32_t>(mark);
      estimate += cap;
    }
    if (l + 1 == levels) {
      // Final stage has no parent; counts beyond its range are lost
      // (unreachable with 32-bit roots in practice).
      return estimate;
    }
    index /= config_.k;
  }
  return estimate;
}

void FcmTree::index_block(std::span<const flow::FlowKey> keys,
                          std::span<std::uint32_t> idx) const noexcept {
  // One tight inline loop of hashes + fast-range reductions (32-bit in and
  // out, so the compiler can pack it — see SeededHash::index_batch) ...
  hash_.index_batch(keys, config_.leaf_count, idx);
  // ... then request every level-1 counter line of the block up front, so
  // the misses overlap each other and whatever work runs before the apply.
  const std::uint32_t* const level1 = stages_[0].data();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    FCM_PREFETCH_WRITE(level1 + idx[i]);
  }
}

void FcmTree::apply_block(std::span<const std::uint32_t> idx,
                          std::span<std::uint64_t> min_estimates) {
  std::uint32_t* const level1 = stages_[0].data();
  const std::uint32_t cap = counting_max_[0];
  const std::size_t n = idx.size();
  if (min_estimates.empty()) {
    // No estimate consumer (heavy-hitter tracking off): only the final
    // stages are observable, and they are a function of the per-leaf
    // arrival totals alone (the linearity merge() relies on,
    // DESIGN.md §7). So the block is settled out of key order, in three
    // passes that each compact what they could not settle into `left`.
    FCM_ASSERT(n <= common::kBatchBlock,
               "FcmTree::apply_block: block exceeds kBatchBlock keys");
    std::uint32_t left[common::kBatchBlock];
    // Pass 1: branch-free level-1 increment of every leaf below its
    // counting max; leaves at the max or overflowed stay behind.
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t x = idx[i];
      const std::uint32_t v = level1[x];
      const std::uint32_t below = v < cap ? 1u : 0u;
      level1[x] = v + below;
      left[m] = x;
      m += below ^ 1u;
    }
    // Pass 2: an overflowed leaf forwards its +1 to its level-2 parent,
    // again branch-free while that parent is below its counting max.
    if (stages_.size() > 1) {
      std::uint32_t* const level2 = stages_[1].data();
      const std::uint32_t mark = marker_[0];
      const std::uint32_t cap2 = counting_max_[1];
      std::size_t r = 0;
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint32_t x = left[j];
        const std::uint32_t parent = x / k_;
        const std::uint32_t v = level2[parent];
        const std::uint32_t settled =
            (level1[x] == mark && v < cap2) ? 1u : 0u;
        level2[parent] = v + settled;
        left[r] = x;
        r += settled ^ 1u;
      }
      m = r;
    }
    // Pass 3: trips and deeper carries take the scalar carry walk.
    for (std::size_t j = 0; j < m; ++j) add_at(left[j], 1);
    return;
  }
  // An estimate consumer reads each key's post-update estimate, which
  // depends on order: apply in key order, specializing only the per-key
  // work (a node's trip into overflow is observed by later duplicates).
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t& node = level1[idx[i]];
    std::uint64_t estimate;
    if (node < cap) {
      estimate = ++node;
    } else {
      estimate = add_at(idx[i], 1);
    }
    std::uint64_t& slot = min_estimates[i];
    slot = std::min(slot, estimate);
  }
}

std::uint64_t FcmTree::query_at(std::size_t index) const noexcept {
  std::uint64_t estimate = 0;
  const std::size_t levels = stages_.size();
  for (std::size_t l = 0; l < levels; ++l) {
    const std::uint32_t node = stages_[l][index];
    if (node != marker_[l]) {
      return estimate + node;
    }
    estimate += counting_max_[l];
    if (l + 1 == levels) return estimate;  // root overflowed: best effort
    index /= config_.k;
  }
  return estimate;
}

void FcmTree::merge(const FcmTree& other) {
  FCM_REQUIRE(config_ == other.config_,
              "FcmTree::merge: mismatched configs (geometry or seed differ)");
  FCM_REQUIRE(hash_.seed() == other.hash_.seed(),
              "FcmTree::merge: trees use different leaf hash functions");
  const std::size_t levels = stages_.size();
  // Counts promoted from merged children into the current level. Index j at
  // level l > 0 receives the excess of its k children at level l-1; leaves
  // have no children, so each buffer is sized by the level it feeds.
  std::vector<std::uint64_t> promoted;
  std::vector<std::uint64_t> next_promoted;
  for (std::size_t l = 0; l < levels; ++l) {
    const std::uint64_t cap = counting_max_[l];
    const std::uint32_t mark = marker_[l];
    const bool has_children = l > 0;
    next_promoted.assign(l + 1 < levels ? stages_[l + 1].size() : 0, 0);
    for (std::size_t i = 0; i < stages_[l].size(); ++i) {
      const std::uint32_t va = stages_[l][i];
      const std::uint32_t vb = other.stages_[l][i];
      const bool shard_overflowed = (va == mark) || (vb == mark);
      // Local arrivals visible at this level: what each shard counted here
      // (capped; their excess is in their next level) plus what the merged
      // children promoted.
      const std::uint64_t sum = (has_children ? promoted[i] : 0) +
                                std::min<std::uint64_t>(va, cap) +
                                std::min<std::uint64_t>(vb, cap);
      // A shard overflow implies its capped value == cap, hence sum >= cap;
      // the serial tree overflowed here iff a shard did or the sum alone
      // exceeds the counting range.
      if (shard_overflowed || sum > cap) {
        FCM_ASSERT(sum >= cap,
                   "FcmTree::merge: overflowed node with sum below capacity");
        if (l + 1 < levels) next_promoted[i / config_.k] += sum - cap;
        // Beyond the root the serial tree drops the excess too.
        stages_[l][i] = mark;
      } else {
        stages_[l][i] = common::checked_narrow<std::uint32_t>(sum);
      }
    }
    promoted.swap(next_promoted);
  }
  FCM_CHECKED_ONLY(check_invariants());
}

std::uint64_t FcmTree::node_count(std::size_t stage_1based,
                                  std::size_t index) const noexcept {
  const std::uint32_t v = stages_[stage_1based - 1][index];
  return std::min<std::uint64_t>(v, counting_max_[stage_1based - 1]);
}

bool FcmTree::node_overflowed(std::size_t stage_1based,
                              std::size_t index) const noexcept {
  return stages_[stage_1based - 1][index] == marker_[stage_1based - 1];
}

std::uint64_t FcmTree::overflow_promotion_count() const noexcept {
  std::uint64_t tripped = 0;
  for (std::size_t l = 0; l < stages_.size(); ++l) {
    tripped += static_cast<std::uint64_t>(
        std::count(stages_[l].begin(), stages_[l].end(), marker_[l]));
  }
  return tripped;
}

std::size_t FcmTree::empty_leaf_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(stages_[0].begin(), stages_[0].end(), 0u));
}

std::uint64_t FcmTree::total_count() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < stages_.size(); ++l) {
    for (const std::uint32_t v : stages_[l]) {
      total += std::min<std::uint64_t>(v, counting_max_[l]);
    }
  }
  return total;
}

void FcmTree::check_invariants() const {
  const std::size_t levels = config_.stage_count();
  FCM_ASSERT(stages_.size() == levels,
             "FcmTree: stage vector count diverged from config");
  FCM_ASSERT(counting_max_.size() == levels && marker_.size() == levels,
             "FcmTree: cached per-stage limits diverged from config");
  for (std::size_t l = 0; l < levels; ++l) {
    FCM_ASSERT(stages_[l].size() == config_.width(l + 1),
               "FcmTree: stage " + std::to_string(l + 1) +
                   " width diverged from config");
    FCM_ASSERT(marker_[l] == counting_max_[l] + 1,
               "FcmTree: marker/counting-max mismatch at stage " +
                   std::to_string(l + 1));
    for (std::size_t i = 0; i < stages_[l].size(); ++i) {
      const std::uint32_t v = stages_[l][i];
      // Bit-width saturation: a b-bit node never stores more than 2^b - 1.
      FCM_ASSERT(v <= marker_[l],
                 "FcmTree: node value exceeds its bit width at stage " +
                     std::to_string(l + 1) + " index " + std::to_string(i));
      if (l + 1 < levels) {
        // Overflow flag ↔ next-level counter consistency (Figure 3): the
        // tripping increment always lands in the parent.
        FCM_ASSERT(v != marker_[l] || stages_[l + 1][i / config_.k] > 0,
                   "FcmTree: overflowed node at stage " + std::to_string(l + 1) +
                       " index " + std::to_string(i) +
                       " but its parent holds no count");
      }
      if (l > 0 && v > 0) {
        // A non-leaf node only receives counts via child overflow.
        bool any_overflowed_child = false;
        for (std::size_t c = i * config_.k;
             c < std::min((i + 1) * config_.k, stages_[l - 1].size()); ++c) {
          if (stages_[l - 1][c] == marker_[l - 1]) {
            any_overflowed_child = true;
            break;
          }
        }
        FCM_ASSERT(any_overflowed_child,
                   "FcmTree: stage " + std::to_string(l + 1) + " node " +
                       std::to_string(i) +
                       " holds a count but no child overflowed");
      }
    }
  }
}

void FcmTree::clear() noexcept {
  for (auto& stage : stages_) std::fill(stage.begin(), stage.end(), 0u);
}

}  // namespace fcm::core
