// HyperLogLog [Flajolet et al. 2007], the paper's cardinality baseline
// (8-bit register array, §7.1). FCM's own estimate is linear counting on its
// leaf stage (§3.3, FcmSketch::estimate_cardinality).
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "flow/flow_key.h"

namespace fcm::sketch {

class HyperLogLog {
 public:
  // `register_count` must be a power of two >= 16. The paper's setup uses
  // 8-bit registers.
  explicit HyperLogLog(std::size_t register_count, std::uint64_t seed = 0x4211);

  static HyperLogLog for_memory(std::size_t memory_bytes, std::uint64_t seed = 0x4211);

  void update(flow::FlowKey key);

  // Standard HLL estimate with small-range (linear counting) and large-range
  // corrections.
  double estimate() const;

  std::size_t memory_bytes() const { return registers_.size(); }
  void clear();

 private:
  // Seed of the second 32-bit hash that widens update()'s value to 64 bits:
  // hash_.seed() ^ kAuxSeedXor.
  static constexpr std::uint32_t kAuxSeedXor = 0x9e3779b9u;

  common::SeededHash hash_;
  unsigned index_bits_;
  std::vector<std::uint8_t> registers_;
};

}  // namespace fcm::sketch
