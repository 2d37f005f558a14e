#include "fcm/fcm_tree.h"

#include <algorithm>
#include <string>
#include <type_traits>

#include "common/bitutil.h"
#include "common/contracts.h"

namespace fcm::core {
namespace {

// Node type of a StageArray alternative.
template <typename Nodes>
using NodeOf = typename std::remove_cvref_t<Nodes>::value_type;

// A unit key's weight: a compile-time 1, for which every pass is a +1 loop.
using Unit = std::integral_constant<std::uint32_t, 1>;

// Whether a node holding `v` takes `w` more within its counting max `cap`
// (so v + w fits its storage type). Never for an overflowed node (cap + 1);
// no sum is formed, so no weight wraps; `&` keeps the passes branch-free.
template <typename W>
constexpr bool fits(std::uint32_t v, W w, std::uint32_t cap) noexcept {
  return (v <= cap) & (w <= cap - v);
}

// The two branch-free passes of an order-free block (FcmTree::apply_block),
// per storage and weight type. Each compacts the keys it could not settle
// into `left`, their weights into `kept`, and returns how many that is.
//
// Pass 1: each weight(i) lands on its leaf where it fits; keys whose leaf it
// would fill past the max, or that is overflowed, stay behind.
template <typename T1, typename Weight, typename W>
std::size_t level1_pass(T1* level1, std::uint32_t cap,
                        std::span<const std::uint32_t> idx, Weight weight,
                        std::uint32_t* left, W* kept) noexcept {
  std::size_t m = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const std::uint32_t x = idx[i];
    const W w = weight(i);
    const std::uint32_t v = level1[x];
    const bool settled = fits(v, w, cap);
    level1[x] = static_cast<T1>(v + (settled ? w : 0));
    left[m] = x;
    kept[m] = w;
    m += !settled;
  }
  return m;
}

// Pass 2: an overflowed leaf's weight goes to its level-2 parent, if it fits.
template <typename T1, typename T2, typename W>
std::size_t level2_pass(const T1* level1, T2* level2, std::uint32_t mark,
                        std::uint32_t cap2, std::uint32_t k,
                        std::uint32_t* left, W* kept, std::size_t m) noexcept {
  std::size_t r = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t x = left[j];
    const W w = kept[j];
    const std::uint32_t parent = x / k;
    const std::uint32_t v = level2[parent];
    const bool settled = (level1[x] == mark) & fits(v, w, cap2);
    level2[parent] = static_cast<T2>(v + (settled ? w : 0));
    left[r] = x;
    kept[r] = w;
    r += !settled;
  }
  return r;
}

// One stage of FcmTree::merge (see there for the argument), at the stage's
// storage type: adds `theirs` into `nodes`, plus what the merged children
// promoted (`from_children`; null at the leaves), and adds each overflowed
// node's excess to its parent's slot of `to_parent` (null at the root,
// where the serial tree drops it too). `cap` and `mark` come at type T, so
// the compiler sees that a sum at most `cap` fits T and drops the narrowing
// check from the loop.
template <typename T>
void merge_stage(T* nodes, const T* theirs, std::size_t n, T cap, T mark,
                 const std::uint64_t* from_children, std::uint64_t* to_parent,
                 std::size_t k) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t va = nodes[i];
    const std::uint32_t vb = theirs[i];
    const bool shard_overflowed = (va == mark) || (vb == mark);
    // Local arrivals visible at this level: what each shard counted here
    // (capped; their excess is in their next level) plus what the merged
    // children promoted.
    const std::uint64_t sum = (from_children != nullptr ? from_children[i] : 0) +
                              std::min<std::uint64_t>(va, cap) +
                              std::min<std::uint64_t>(vb, cap);
    // A shard overflow implies its capped value == cap, hence sum >= cap;
    // the serial tree overflowed here iff a shard did or the sum alone
    // exceeds the counting range.
    if (shard_overflowed || sum > cap) {
      FCM_ASSERT(sum >= cap,
                 "FcmTree::merge: overflowed node with sum below capacity");
      if (to_parent != nullptr) to_parent[i / k] += sum - cap;
      nodes[i] = mark;
    } else {
      nodes[i] = common::checked_narrow<T>(sum);
    }
  }
}

}  // namespace

FcmTree::FcmTree(const FcmConfig& config, common::SeededHash hash)
    : config_(config), hash_(hash) {
  config_.validate();
  k_ = common::checked_narrow<std::uint32_t>(config_.k);
  const std::size_t levels = config_.stage_count();
  stages_.reserve(levels);
  counting_max_.resize(levels);
  marker_.resize(levels);
  for (std::size_t l = 1; l <= levels; ++l) {
    const std::size_t width = config_.width(l);
    switch (config_.stage_storage_bytes(l)) {
      case 1:
        stages_.emplace_back(std::in_place_type<std::vector<std::uint8_t>>, width);
        break;
      case 2:
        stages_.emplace_back(std::in_place_type<std::vector<std::uint16_t>>, width);
        break;
      default:
        stages_.emplace_back(std::in_place_type<std::vector<std::uint32_t>>, width);
        break;
    }
    counting_max_[l - 1] =
        common::checked_narrow<std::uint32_t>(config_.counting_max(l));
    marker_[l - 1] = counting_max_[l - 1] + 1;
  }
}

FcmTree::StageView FcmTree::stage(std::size_t stage_1based) const noexcept {
  return std::visit([](const auto& nodes) {
    return StageView(nodes.data(), nodes.size(), sizeof(NodeOf<decltype(nodes)>));
  }, stages_[stage_1based - 1]);
}

std::uint64_t FcmTree::add_at(std::size_t index, std::uint64_t count) {
  std::uint64_t estimate = 0;
  std::uint64_t carry = count;
  const std::size_t levels = stages_.size();

  for (std::size_t l = 0; l < levels; ++l) {
    const std::uint64_t cap = counting_max_[l];
    const std::uint64_t mark = marker_[l];
    // True once the carry has settled at this stage.
    const bool settled = std::visit([&](auto& nodes) {
      using T = NodeOf<decltype(nodes)>;
      T& node = nodes[index];
      if (node == mark) {
        // Already overflowed: everything carries forward (Algorithm 1 skips
        // the increment and recurses).
        estimate += cap;
        return false;
      }
      const std::uint64_t room = cap - node;
      if (carry <= room) {
        node = common::checked_narrow<T>(node + carry);
        estimate += node;
        return true;
      }
      // The increments fill the node and trip the overflow marker; the
      // remainder (including the tripping increment) carries forward.
      carry -= room;
      node = common::checked_narrow<T>(mark);
      estimate += cap;
      return false;
    }, stages_[l]);
    if (settled || l + 1 == levels) {
      // Past the final stage there is no parent: counts beyond its range
      // are lost (unreachable with 32-bit roots in practice).
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
  std::visit([&](const auto& level1) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      FCM_PREFETCH_WRITE(level1.data() + idx[i]);
    }
  }, stages_[0]);
}

void FcmTree::apply_block(std::span<const std::uint32_t> idx,
                          std::span<const std::uint64_t> weights,
                          std::span<std::uint64_t> min_estimates) {
  FCM_ASSERT(idx.size() <= common::kBatchBlock,
             "FcmTree::apply_block: block exceeds kBatchBlock keys");
  // One body for unit and weighted keys (weight(i)). Spans come by value: a
  // uint8_t node store may alias them through a reference, reloading them.
  const auto settle = [this](auto weight, std::span<const std::uint32_t> idx,
                             std::span<std::uint64_t> min_estimates) {
    using W = decltype(weight(0));
    const std::uint32_t cap = counting_max_[0];
    if (min_estimates.empty()) {
      // No estimate consumer (heavy-hitter tracking off): only the final
      // stages are observable, and they are a function of the per-leaf
      // arrival totals alone (the linearity merge() relies on,
      // DESIGN.md §7). So the block is settled out of key order, in three
      // passes that each compact what they could not settle into `left`.
      // The storage types are dispatched once per block, outside the loops.
      std::uint32_t left[common::kBatchBlock];
      W kept[common::kBatchBlock];
      std::size_t m = std::visit([&](auto& level1) {
        return level1_pass(level1.data(), cap, idx, weight, left, kept);
      }, stages_[0]);
      if (stages_.size() > 1) {
        m = std::visit([&](const auto& level1, auto& level2) {
          return level2_pass(level1.data(), level2.data(), marker_[0],
                             counting_max_[1], k_, left, kept, m);
        }, stages_[0], stages_[1]);
      }
      // Pass 3: trips and deeper carries take the scalar carry walk.
      for (std::size_t j = 0; j < m; ++j) add_at(left[j], kept[j]);
      return;
    }
    // An estimate consumer reads each key's post-update estimate, which
    // depends on order: apply in key order, specializing only the per-key
    // work (a node's trip into overflow is observed by later duplicates).
    std::visit([&](auto& stage) {
      // A plain pointer, for the same reason: the vector's own data
      // pointer may alias a uint8_t node too.
      auto* const level1 = stage.data();
      using T1 = std::remove_pointer_t<decltype(level1)>;
      for (std::size_t i = 0; i < idx.size(); ++i) {
        T1& node = level1[idx[i]];
        const W w = weight(i);
        const std::uint64_t estimate =
            fits(node, w, cap) ? (node = static_cast<T1>(node + w))
                               : add_at(idx[i], w);
        min_estimates[i] = std::min(min_estimates[i], estimate);
      }
    }, stages_[0]);
  };
  if (weights.empty()) {
    return settle([](std::size_t) { return Unit{}; }, idx, min_estimates);
  }
  settle([weights](std::size_t i) { return weights[i]; }, idx, min_estimates);
}

std::uint64_t FcmTree::query_at(std::size_t index) const noexcept {
  std::uint64_t estimate = 0;
  const std::size_t levels = stages_.size();
  for (std::size_t l = 0; l < levels; ++l) {
    const std::uint32_t node = load(l, index);
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
    next_promoted.assign(l + 1 < levels ? config_.width(l + 2) : 0, 0);
    // Equal configs give both trees the same storage type at every stage.
    std::visit([&](auto& nodes) {
      using Nodes = std::remove_cvref_t<decltype(nodes)>;
      using T = NodeOf<Nodes>;
      merge_stage(nodes.data(), std::get<Nodes>(other.stages_[l]).data(),
                  nodes.size(), common::checked_narrow<T>(counting_max_[l]),
                  common::checked_narrow<T>(marker_[l]),
                  l > 0 ? promoted.data() : nullptr,
                  l + 1 < levels ? next_promoted.data() : nullptr, config_.k);
    }, stages_[l]);
    promoted.swap(next_promoted);
  }
  FCM_CHECKED_ONLY(check_invariants());
}

std::uint64_t FcmTree::node_count(std::size_t stage_1based,
                                  std::size_t index) const noexcept {
  return std::min<std::uint64_t>(load(stage_1based - 1, index),
                                 counting_max_[stage_1based - 1]);
}

bool FcmTree::node_overflowed(std::size_t stage_1based,
                              std::size_t index) const noexcept {
  return load(stage_1based - 1, index) == marker_[stage_1based - 1];
}

std::uint64_t FcmTree::overflow_promotion_count() const noexcept {
  std::uint64_t tripped = 0;
  for (std::size_t l = 0; l < stages_.size(); ++l) {
    tripped += std::visit([mark = marker_[l]](const auto& nodes) {
      return static_cast<std::uint64_t>(
          std::count(nodes.begin(), nodes.end(), mark));
    }, stages_[l]);
  }
  return tripped;
}

std::size_t FcmTree::empty_leaf_count() const noexcept {
  return std::visit([](const auto& leaves) {
    return static_cast<std::size_t>(std::count(leaves.begin(), leaves.end(), 0u));
  }, stages_[0]);
}

std::uint64_t FcmTree::total_count() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < stages_.size(); ++l) {
    std::visit([&total, cap = counting_max_[l]](const auto& nodes) {
      for (const std::uint32_t v : nodes) {
        total += std::min<std::uint64_t>(v, cap);
      }
    }, stages_[l]);
  }
  return total;
}

void FcmTree::check_invariants() const {
  const std::size_t levels = config_.stage_count();
  FCM_ASSERT(stages_.size() == levels,
             "FcmTree: stage array count diverged from config");
  FCM_ASSERT(counting_max_.size() == levels && marker_.size() == levels,
             "FcmTree: cached per-stage limits diverged from config");
  for (std::size_t l = 0; l < levels; ++l) {
    const StageView nodes = stage(l + 1);
    FCM_ASSERT(nodes.size() == config_.width(l + 1),
               "FcmTree: stage " + std::to_string(l + 1) +
                   " width diverged from config");
    FCM_ASSERT(nodes.size_bytes() ==
                   nodes.size() * config_.stage_storage_bytes(l + 1),
               "FcmTree: stage " + std::to_string(l + 1) +
                   " storage width diverged from config");
    FCM_ASSERT(marker_[l] == counting_max_[l] + 1,
               "FcmTree: marker/counting-max mismatch at stage " +
                   std::to_string(l + 1));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::uint32_t v = nodes[i];
      // Bit-width saturation: a b-bit node never stores more than 2^b - 1.
      FCM_ASSERT(v <= marker_[l],
                 "FcmTree: node value exceeds its bit width at stage " +
                     std::to_string(l + 1) + " index " + std::to_string(i));
      if (l + 1 < levels) {
        // Overflow flag ↔ next-level counter consistency (Figure 3): the
        // tripping increment always lands in the parent.
        FCM_ASSERT(v != marker_[l] || load(l + 1, i / config_.k) > 0,
                   "FcmTree: overflowed node at stage " + std::to_string(l + 1) +
                       " index " + std::to_string(i) +
                       " but its parent holds no count");
      }
      if (l > 0 && v > 0) {
        // A non-leaf node only receives counts via child overflow.
        bool any_overflowed_child = false;
        for (std::size_t c = i * config_.k;
             c < std::min((i + 1) * config_.k, config_.width(l)); ++c) {
          if (load(l - 1, c) == marker_[l - 1]) {
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
  for (StageArray& nodes : stages_) {
    std::visit([](auto& stage) { std::fill(stage.begin(), stage.end(), 0u); },
               nodes);
  }
}

}  // namespace fcm::core
