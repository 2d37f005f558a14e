// FCM+TopK (paper §6): a single-level Top-K filter in front of an
// FCM-Sketch. Heavy flows are pinned in the filter with exact counts;
// pass-through packets and evicted incumbents land in the FCM-Sketch.
// The paper's default geometry is 16-ary trees with a 4K-entry filter (§7.2).
// It models one switch: the filter's heavy part is not linear, so FcmTopK
// has no merge and no wire form. Network-wide measurement runs plain FCM
// through framework::FcmFramework; control::topk_fsd is FCM+TopK's flow
// size distribution estimate.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "fcm/fcm_sketch.h"
#include "sketch/topk_filter.h"

namespace fcm::core {

class FcmTopK {
 public:
  struct Config {
    FcmConfig fcm;
    std::size_t topk_entries = 4096;   // §7.2 software default
    std::uint32_t eviction_lambda = 8;
  };

  explicit FcmTopK(Config config);

  // Splits `memory_bytes` as the paper does: the Top-K table takes its fixed
  // 8-byte entries, the remainder goes to the FCM-Sketch.
  static FcmTopK for_memory(std::size_t memory_bytes, std::size_t tree_count = 2,
                            std::size_t k = 16, std::size_t topk_entries = 4096,
                            std::uint64_t seed = 0x5555aaaa);

  // One packet: the filter's offer decides whether it is kept, passes
  // through to the sketch, or evicts an incumbent into it.
  void update(flow::FlowKey key);

  std::uint64_t query(flow::FlowKey key) const;

  double estimate_cardinality() const;

  void set_heavy_hitter_threshold(std::uint64_t threshold);
  // Heavy hitters from both parts: filter-resident flows whose combined
  // count crossed the threshold, plus FCM-side detections.
  std::vector<flow::FlowKey> heavy_hitters(std::uint64_t threshold) const;

  // Filter-resident flows with their heavy-part counts (control plane input).
  std::unordered_map<flow::FlowKey, std::uint64_t> topk_flows() const;

  const FcmSketch& sketch() const noexcept { return sketch_; }
  FcmSketch& sketch() noexcept { return sketch_; }
  const sketch::TopKFilter& filter() const noexcept { return filter_; }

  std::size_t memory_bytes() const {
    return sketch_.memory_bytes() + filter_.memory_bytes();
  }

  // Deep invariants of both parts (sketch trees + filter vote table).
  void check_invariants() const;

  void clear();

 private:
  FcmSketch sketch_;
  sketch::TopKFilter filter_;
};

}  // namespace fcm::core
