// A single k-ary FCM tree (paper §3.1–3.2).
//
// Stage l holds width(l) nodes of b_l bits. A node stores values
// 0..2^b_l - 2 directly; the all-ones value 2^b_l - 1 means "count saturated
// at 2^b_l - 2 and increments have been carried to the parent" (Figure 3).
// Update feeds increments forward (Algorithm 1); count-query sums capped
// values along the path until the first non-overflowed node.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "fcm/fcm_config.h"
#include "flow/flow_key.h"

namespace fcm::agg {
class WireCodec;  // wire-format (de)serializer, the single state-access friend
}

namespace fcm::core {

class FcmTree {
 public:
  // `config` describes geometry; `hash` selects this tree's leaf index.
  FcmTree(const FcmConfig& config, common::SeededHash hash);

  // Adds `count` to the flow (Algorithm 1 generalized to bulk increments;
  // count = 1 is the per-packet update). Returns the post-update estimate
  // for the flow, mirroring the data plane's write-and-return sALU.
  std::uint64_t add(flow::FlowKey key, std::uint64_t count = 1) {
    return add_at(leaf_index(key), count);
  }

  // Leaf-index forms of add/query, for callers that already hold the leaf
  // index (the batched kernel, and FcmSketch::update_conservative's
  // read-then-write pass, which must not hash twice). `index` must come from
  // leaf_index()/index_batch() on this tree's hash.
  std::uint64_t add_at(std::size_t index, std::uint64_t count);
  std::uint64_t query_at(std::size_t index) const noexcept;

  // The two halves of the batched per-packet update (DESIGN.md §9), which
  // FcmSketch::add_batch pipelines ACROSS trees: hash+prefetch one block for
  // every tree, then apply every tree's block, so the key block is read from
  // L1 once and the outstanding prefetches of all trees overlap. keys/idx
  // must be at most common::kBatchBlock entries.
  //
  // index_block hashes `keys` into level-1 indices and issues a write
  // prefetch for each touched counter line. apply_block applies one +1 per
  // index and leaves the tree state and promotion counter bit-exact against
  // per-key add() (tests/test_batch_equivalence.cpp):
  //   - with an EMPTY `min_estimates` (no estimate consumer), it settles the
  //     block out of key order: a branch-free level-1 pass, a branch-free
  //     level-2 pass for keys whose leaf has overflowed, then the scalar
  //     carry walk (add_at) for the rest. Exact because the state depends
  //     only on per-leaf arrival totals (DESIGN.md §7);
  //   - otherwise it applies in key order and lowers min_estimates[i] toward
  //     the post-update estimate of keys[i] (which must cover idx.size()
  //     entries), so FcmSketch::add_batch reads off the min-query without a
  //     second pass.
  void index_block(std::span<const flow::FlowKey> keys,
                   std::span<std::uint32_t> idx) const noexcept;
  void apply_block(std::span<const std::uint32_t> idx,
                   std::span<std::uint64_t> min_estimates);

  // Count-query (paper §3.2): sum along the overflow path.
  std::uint64_t query(flow::FlowKey key) const noexcept {
    return query_at(leaf_index(key));
  }

  // Merges `other` into this tree: counter-sum with overflow promotion to
  // the next tree level. FCM trees are linear in the per-leaf arrival totals,
  // so the merged state is *bit-exact* the state a single tree would hold
  // after absorbing both input streams (see DESIGN.md §7 for the argument):
  // per node, bottom-up,
  //     S = promoted + Σ_shard min(v_shard, θ_l)
  // stores S when no shard overflowed and S <= θ_l; otherwise the node is
  // marked overflowed and max(0, S - θ_l) is promoted to its parent (the
  // excess each shard already forwarded lives in that shard's next level and
  // is picked up by the Σ there). Requires identical config and leaf hash;
  // violations raise ContractViolation via FCM_REQUIRE. Commutative and
  // associative; merging a cleared tree is an identity.
  void merge(const FcmTree& other);

  // Leaf index this tree assigns to `key`.
  std::size_t leaf_index(flow::FlowKey key) const noexcept {
    return hash_.index(key, config_.leaf_count);
  }

  // Raw stored node values at stage l (1-based): 2^b-1 entries are overflow
  // markers. Used by the control-plane conversion algorithm.
  std::span<const std::uint32_t> stage(std::size_t stage_1based) const noexcept {
    return stages_[stage_1based - 1];
  }

  // The count a node contributes locally: min(value, 2^b - 2).
  std::uint64_t node_count(std::size_t stage_1based, std::size_t index) const noexcept;
  bool node_overflowed(std::size_t stage_1based, std::size_t index) const noexcept;

  // Number of zero-valued leaf nodes (w_1^0), for linear counting.
  std::size_t empty_leaf_count() const noexcept;

  // Total count absorbed by the tree (sum of capped node counts). Preserved
  // exactly by the virtual-counter conversion; used as an invariant check.
  std::uint64_t total_count() const noexcept;

  // Observability: how many nodes this tree has tripped into the overflow
  // state (a counter saturating and carrying to its parent — Figure 3's
  // promotion event) since construction / clear(). A node trips at most
  // once, so this equals the number of overflowed nodes; merge() sets it to
  // that number in the merged state, the tally a serial run over both
  // inputs' traffic would hold.
  // Scraped into the obs::MetricsRegistry by the layers above (the tree
  // itself stays free of atomics so the single-shard hot path is untouched).
  std::uint64_t overflow_promotion_count() const noexcept {
    return promotions_;
  }

  const FcmConfig& config() const noexcept { return config_; }

  // Deep structural invariants (§3.1/Figure 3 semantics); throws/aborts per
  // the contract level on violation:
  //   - geometry: stage vector shapes match the config;
  //   - bit-width saturation: every stored node value <= overflow marker;
  //   - overflow-flag ↔ parent consistency: an overflowed node's parent
  //     holds a positive count (the carry landed), and a non-leaf node with
  //     a positive count has at least one overflowed child.
  // Cheap enough for test sweeps; CHECKED builds call it from hot paths via
  // FCM_CHECKED_ONLY.
  void check_invariants() const;

  // The hash function selecting this tree's leaf (needed to compile the
  // tree onto the PISA pipeline with identical indexing).
  common::SeededHash hash() const noexcept { return hash_; }

  void clear() noexcept;

 private:
  friend class ::fcm::agg::WireCodec;

  FcmConfig config_;
  common::SeededHash hash_;
  // config_.k, narrowed once for the level-2 parent index in apply_block.
  std::uint32_t k_ = 0;
  std::vector<std::vector<std::uint32_t>> stages_;
  // Per-stage cached limits, so the hot path avoids recomputing shifts.
  std::vector<std::uint32_t> counting_max_;
  std::vector<std::uint32_t> marker_;
  // Overflow-promotion events (see overflow_promotion_count()).
  std::uint64_t promotions_ = 0;
};

}  // namespace fcm::core
