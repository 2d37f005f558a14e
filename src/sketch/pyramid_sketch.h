// Pyramid Sketch [Yang et al., VLDB 2017] combined with Count-Min — "PCM",
// the paper's counter-sharing baseline (§7.1–7.2: 4 hashes, 4-bit counters).
//
// Layer 1 holds pure 4-bit counters. Each higher layer halves in width; its
// 4-bit cells hold 2 counting bits plus 2 flag bits (left/right child
// overflowed). When a counter wraps, a carry is pushed to its parent and the
// child's flag is set in the parent. Queries reconstruct a value positionally
// by climbing while flags are set, and PCM takes the minimum over d leaf
// positions.
//
// Word-acceleration (the paper's "64-bit machine word" configuration): one
// hash selects a 16-counter word at layer 1 and the d counters are drawn
// *within* that word, so a flow costs one memory access — at the price of
// correlated collisions between flows sharing a word, which is where PCM
// loses accuracy relative to FCM.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "sketch/frequency_estimator.h"

namespace fcm::sketch {

class PyramidCmSketch : public FrequencyEstimator {
 public:
  // `leaf_width` 4-bit counters at layer 1, `depth` hash functions.
  PyramidCmSketch(std::size_t depth, std::size_t leaf_width,
                  std::uint64_t seed = 0x9147);

  // The paper's PCM configuration (4 hashes) sized for a memory budget.
  static PyramidCmSketch for_memory(std::size_t memory_bytes,
                                    std::size_t depth = 4,
                                    std::uint64_t seed = 0x9147);

  void update(flow::FlowKey key) override;
  std::uint64_t query(flow::FlowKey key) const override;
  std::size_t memory_bytes() const override;
  std::string name() const override { return "PCM"; }
  void clear() override;

 private:
  static constexpr std::uint8_t kLeafMax = 15;        // 4-bit pure counter
  static constexpr std::uint8_t kCountMask = 0x3;     // 2 counting bits
  static constexpr std::uint8_t kLeftFlag = 0x4;
  static constexpr std::uint8_t kRightFlag = 0x8;
  static constexpr std::size_t kCountersPerWord = 16;  // 64-bit word / 4-bit

  void carry_up(std::size_t child_index);
  std::uint64_t reconstruct(std::size_t leaf_index) const;
  // The d leaf counters of `key`, all within one 16-counter word.
  void leaf_indices(flow::FlowKey key, std::vector<std::size_t>& out) const;

  common::SeededHash word_hash_;
  std::vector<common::SeededHash> hashes_;  // sub-hashes within the word
  // layers_[0] is layer 1 (pure counters); layers_[i>=1] are flag+count cells.
  std::vector<std::vector<std::uint8_t>> layers_;
};

}  // namespace fcm::sketch
