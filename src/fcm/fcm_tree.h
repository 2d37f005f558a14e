// A single k-ary FCM tree (paper §3.1–3.2).
//
// Stage l holds width(l) nodes of b_l bits. A node stores values
// 0..2^b_l - 2 directly; the all-ones value 2^b_l - 1 means "count saturated
// at 2^b_l - 2 and increments have been carried to the parent" (Figure 3).
// Update feeds increments forward (Algorithm 1); count-query sums capped
// values along the path until the first non-overflowed node.
//
// Each stage is one register array of uint8_t, uint16_t or uint32_t: the
// narrowest that holds b_l bits (FcmConfig::stage_storage_bytes), so the
// paper's 8/16/32-bit tree is resident in exactly its logical memory. Every
// cap, marker, carry, merge sum and estimate is computed in 32/64-bit
// temporaries and only the stored value is narrowed, so the state is the
// same whatever the storage width.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
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

  // The two halves of the batched update (DESIGN.md §9), which
  // FcmSketch::add_batch pipelines ACROSS trees: hash+prefetch one block for
  // every tree, then apply every tree's block, so the key block is read from
  // L1 once and the outstanding prefetches of all trees overlap. keys/idx
  // must be at most common::kBatchBlock entries.
  //
  // index_block hashes `keys` into level-1 indices and issues a write
  // prefetch for each touched counter line. apply_block adds weights[i] (1
  // when `weights` is empty) to keys[i], bit-exact against add() in order:
  // out of key order with an EMPTY `min_estimates` (DESIGN.md §7, §9), else
  // in key order, lowering min_estimates[i] toward keys[i]'s post-update
  // estimate for FcmSketch::add_batch's min-query. Non-empty `weights` and
  // `min_estimates` cover idx.size() entries.
  void index_block(std::span<const flow::FlowKey> keys,
                   std::span<std::uint32_t> idx) const noexcept;
  void apply_block(std::span<const std::uint32_t> idx,
                   std::span<const std::uint64_t> weights,
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

  // Read-only view of one stage's stored node values: 2^b-1 entries are
  // overflow markers. operator[] widens a node to 32 bits; data() and
  // size_bytes() expose the stored array itself, whose nodes are
  // FcmConfig::stage_storage_bytes(l) bytes wide.
  class StageView {
   public:
    std::size_t size() const noexcept { return size_; }
    const void* data() const noexcept { return data_; }
    std::size_t size_bytes() const noexcept { return size_ * node_bytes_; }
    std::uint32_t operator[](std::size_t i) const noexcept {
      switch (node_bytes_) {
        case 1: return static_cast<const std::uint8_t*>(data_)[i];
        case 2: return static_cast<const std::uint16_t*>(data_)[i];
        default: return static_cast<const std::uint32_t*>(data_)[i];
      }
    }

   private:
    friend class FcmTree;
    StageView(const void* data, std::size_t size, std::size_t node_bytes) noexcept
        : data_(data), size_(size), node_bytes_(node_bytes) {}

    const void* data_;
    std::size_t size_;
    std::size_t node_bytes_;
  };

  // Stage l (1-based); the view lives as long as the tree is neither
  // destroyed nor assigned to.
  StageView stage(std::size_t stage_1based) const noexcept;

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
  // once and stays tripped, so the tally is the number of nodes holding
  // their stage's overflow marker, counted from the stage arrays on each
  // call (one pass over the tree; the layers above scrape it once per
  // epoch, never per packet). It is therefore exact after a merge or a wire
  // round-trip, the tally a serial run over all inputs' traffic would hold.
  std::uint64_t overflow_promotion_count() const noexcept;

  const FcmConfig& config() const noexcept { return config_; }

  // Deep structural invariants (§3.1/Figure 3 semantics); throws/aborts per
  // the contract level on violation:
  //   - geometry: stage array sizes and storage widths match the config;
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

  // Leaf-index forms of add/query: the bodies of add()/query() and the
  // carry walk that apply_block falls back to. `index` must come from
  // leaf_index() or index_block() on this tree's hash.
  std::uint64_t add_at(std::size_t index, std::uint64_t count);
  std::uint64_t query_at(std::size_t index) const noexcept;

  // One stage's nodes, at FcmConfig::stage_storage_bytes(l) bytes each.
  using StageArray =
      std::variant<std::vector<std::uint8_t>, std::vector<std::uint16_t>,
                   std::vector<std::uint32_t>>;

  // Stored value of node `index` at 0-based stage `l`, widened.
  std::uint32_t load(std::size_t l, std::size_t index) const noexcept {
    return std::visit([index](const auto& nodes) -> std::uint32_t {
      return nodes[index];
    }, stages_[l]);
  }

  FcmConfig config_;
  common::SeededHash hash_;
  // config_.k, narrowed once for the level-2 parent index in apply_block.
  std::uint32_t k_ = 0;
  std::vector<StageArray> stages_;
  // Per-stage cached limits, so the hot path avoids recomputing shifts.
  std::vector<std::uint32_t> counting_max_;
  std::vector<std::uint32_t> marker_;
};

}  // namespace fcm::core
