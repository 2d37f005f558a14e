// Configuration of an FCM-Sketch instance (paper §3.1, §7.2).
//
// A sketch is `tree_count` independent k-ary trees. Tree stage l (1-based)
// has w_l = w_1 / k^(l-1) nodes of stage_bits[l-1] bits each. The paper's
// default is 2 trees with 8/16/32-bit stages and k = 8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fcm::core {

struct FcmConfig {
  // Most trees a sketch may have: FcmSketch::add_batch stages one index row
  // per tree in fixed stack buffers.
  static constexpr std::size_t kMaxTrees = 8;

  std::size_t tree_count = 2;           // d, number of trees (min-query over them)
  std::size_t k = 8;                    // fan-in of the k-ary tree
  std::vector<unsigned> stage_bits = {8, 16, 32};  // b_l, strictly increasing
  std::size_t leaf_count = 65536;       // w_1, must divide evenly by k^(L-1)
  std::uint64_t seed = 0x5555aaaa;      // root of the hash family

  std::size_t stage_count() const noexcept { return stage_bits.size(); }

  // Two configs are mergeable (see FcmTree::merge / FcmSketch::merge) iff
  // they compare equal: identical geometry AND an identical hash-family seed,
  // so every tree indexes flows the same way.
  friend bool operator==(const FcmConfig&, const FcmConfig&) = default;

  // Nodes at stage l (1-based).
  std::size_t width(std::size_t stage) const noexcept;

  // Maximum counting value at stage l: 2^b_l - 2 (theta_l in the paper).
  std::uint64_t counting_max(std::size_t stage) const noexcept;

  // Logical memory of the whole sketch in bytes (what the paper's "memory
  // usage" axis measures): sum over trees and stages of w_l * b_l / 8.
  std::size_t memory_bytes() const noexcept;

  // Bytes per node at stage l (1-based): the narrowest of 1, 2 and 4 that
  // holds the stage's overflow marker 2^b_l - 1. FcmTree stores, and the
  // wire frame encodes, every node of the stage at this width, so a sketch
  // whose bit widths are whole bytes (the paper's 8/16/32) is resident in
  // exactly memory_bytes().
  std::size_t stage_storage_bytes(std::size_t stage) const noexcept;

  // Throws std::invalid_argument when the geometry is inconsistent
  // (tree_count outside [1, kMaxTrees], non-increasing bit widths, k < 2,
  // leaf count not divisible, ...).
  void validate() const;

  // Builds a config whose total logical memory is as close to (and not
  // above) `memory_bytes` as the divisibility constraint allows.
  static FcmConfig for_memory(std::size_t memory_bytes, std::size_t tree_count,
                              std::size_t k, std::vector<unsigned> stage_bits,
                              std::uint64_t seed = 0x5555aaaa);

  // The paper's default: 2 trees, 8-ary, 8/16/32-bit, sized for 1.5 MB.
  static FcmConfig paper_default();
};

}  // namespace fcm::core
