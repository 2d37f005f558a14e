#include "fcm/fcm_config.h"

#include <stdexcept>
#include <string>

#include "common/bitutil.h"
#include "common/contracts.h"

namespace fcm::core {

std::size_t FcmConfig::width(std::size_t stage) const noexcept {
  std::size_t w = leaf_count;
  for (std::size_t l = 1; l < stage; ++l) w /= k;
  return w;
}

std::uint64_t FcmConfig::counting_max(std::size_t stage) const noexcept {
  return common::fcm_counting_max(stage_bits[stage - 1]);
}

std::size_t FcmConfig::memory_bytes() const noexcept {
  std::size_t bits = 0;
  for (std::size_t l = 1; l <= stage_count(); ++l) {
    bits += width(l) * stage_bits[l - 1];
  }
  return tree_count * bits / 8;
}

std::size_t FcmConfig::stage_storage_bytes(std::size_t stage) const noexcept {
  const unsigned bits = stage_bits[stage - 1];
  return bits <= 8 ? 1 : bits <= 16 ? 2 : 4;
}

void FcmConfig::validate() const {
  FCM_REQUIRE(tree_count > 0, "FcmConfig: tree_count == 0");
  FCM_REQUIRE(tree_count <= kMaxTrees,
              "FcmConfig: tree_count " + std::to_string(tree_count) +
                  " exceeds kMaxTrees = " + std::to_string(kMaxTrees));
  FCM_REQUIRE(k >= 2, "FcmConfig: k must be >= 2");
  FCM_REQUIRE(!stage_bits.empty(), "FcmConfig: no stages");
  for (std::size_t i = 0; i < stage_bits.size(); ++i) {
    FCM_REQUIRE(stage_bits[i] >= 2 && stage_bits[i] <= 32,
                "FcmConfig: stage bits must be in [2, 32], got " +
                    std::to_string(stage_bits[i]) + " at stage " +
                    std::to_string(i + 1));
    FCM_REQUIRE(i == 0 || stage_bits[i] > stage_bits[i - 1],
                "FcmConfig: stage bits must be strictly increasing (stage " +
                    std::to_string(i + 1) + ")");
  }
  std::size_t divisor = 1;
  for (std::size_t l = 1; l < stage_count(); ++l) divisor *= k;
  FCM_REQUIRE(
      leaf_count > 0 && leaf_count % divisor == 0,
      "FcmConfig: leaf_count (" + std::to_string(leaf_count) +
          ") must be a positive multiple of k^(L-1) = " + std::to_string(divisor));
}

FcmConfig FcmConfig::for_memory(std::size_t memory_bytes, std::size_t tree_count,
                                std::size_t k, std::vector<unsigned> stage_bits,
                                std::uint64_t seed) {
  FcmConfig config;
  config.tree_count = tree_count;
  config.k = k;
  config.stage_bits = std::move(stage_bits);
  config.seed = seed;

  // Bits per leaf slot across all stages: sum_l b_l / k^(l-1).
  double bits_per_leaf = 0.0;
  double scale = 1.0;
  for (const unsigned b : config.stage_bits) {
    bits_per_leaf += static_cast<double>(b) / scale;
    scale *= static_cast<double>(k);
  }
  FCM_REQUIRE(tree_count > 0 && bits_per_leaf > 0.0,
              "FcmConfig::for_memory: bad parameters");
  const double budget_bits =
      static_cast<double>(memory_bytes) * 8.0 / static_cast<double>(tree_count);
  auto leaves = static_cast<std::size_t>(budget_bits / bits_per_leaf);

  std::size_t divisor = 1;
  for (std::size_t l = 1; l < config.stage_count(); ++l) divisor *= k;
  leaves -= leaves % divisor;
  FCM_REQUIRE(leaves > 0,
              "FcmConfig::for_memory: memory budget of " +
                  std::to_string(memory_bytes) + " bytes too small for " +
                  std::to_string(tree_count) + " tree(s)");
  config.leaf_count = leaves;
  config.validate();
  FCM_ENSURE(config.memory_bytes() <= memory_bytes,
             "FcmConfig::for_memory: built config exceeds the memory budget");
  return config;
}

FcmConfig FcmConfig::paper_default() {
  return for_memory(1'500'000, /*tree_count=*/2, /*k=*/8, {8, 16, 32});
}

}  // namespace fcm::core
