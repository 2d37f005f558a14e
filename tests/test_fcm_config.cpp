#include "fcm/fcm_config.h"

#include <gtest/gtest.h>

#include "common/contracts.h"

namespace fcm::core {
namespace {

TEST(FcmConfig, WidthsDecreaseByK) {
  FcmConfig config;
  config.k = 8;
  config.leaf_count = 8 * 8 * 16;
  EXPECT_EQ(config.width(1), 1024u);
  EXPECT_EQ(config.width(2), 128u);
  EXPECT_EQ(config.width(3), 16u);
}

TEST(FcmConfig, CountingMaxPerStage) {
  FcmConfig config;
  config.stage_bits = {8, 16, 32};
  EXPECT_EQ(config.counting_max(1), 254u);
  EXPECT_EQ(config.counting_max(2), 65534u);
  EXPECT_EQ(config.counting_max(3), 4294967294u);
}

TEST(FcmConfig, MemoryBytesSumsStages) {
  FcmConfig config;
  config.tree_count = 2;
  config.k = 8;
  config.stage_bits = {8, 16, 32};
  config.leaf_count = 64;
  // Per tree: 64*1 + 8*2 + 1*4 = 84 bytes.
  EXPECT_EQ(config.memory_bytes(), 168u);
}

TEST(FcmConfig, StageStorageIsTheNarrowestWholeWidth) {
  // Every legal stage width maps to the narrowest of 1, 2 and 4 bytes that
  // holds its overflow marker 2^b - 1.
  for (unsigned b = 2; b <= 32; ++b) {
    FcmConfig config;
    config.stage_bits = {b};
    const std::size_t want = b <= 8 ? 1 : b <= 16 ? 2 : 4;
    EXPECT_EQ(config.stage_storage_bytes(1), want) << "b = " << b;
    EXPECT_LE(config.counting_max(1) + 1, (std::uint64_t{1} << (8 * want)) - 1);
  }
}

TEST(FcmConfig, ValidateRejectsBadGeometry) {
  FcmConfig config;
  config.tree_count = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = FcmConfig{};
  config.k = 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = FcmConfig{};
  config.stage_bits = {};
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = FcmConfig{};
  config.stage_bits = {8, 8};  // not strictly increasing
  config.leaf_count = 64;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = FcmConfig{};
  config.stage_bits = {16, 8};  // decreasing
  config.leaf_count = 64;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = FcmConfig{};
  config.stage_bits = {1, 8};  // below 2 bits
  config.leaf_count = 64;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = FcmConfig{};
  config.leaf_count = 100;  // not a multiple of k^2 = 64
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = FcmConfig{};
  config.leaf_count = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(FcmConfig, RejectsMoreTreesThanBatchKernelHolds) {
  // FcmSketch::add_batch stages one index row per tree in kMaxTrees-row
  // stack buffers, so validate() is where a larger count must stop.
  FcmConfig config;
  config.tree_count = FcmConfig::kMaxTrees + 1;
  EXPECT_THROW(config.validate(), common::ContractViolation);
  config.tree_count = FcmConfig::kMaxTrees;
  EXPECT_NO_THROW(config.validate());
}

TEST(FcmConfig, ValidateAcceptsPaperDefault) {
  EXPECT_NO_THROW(FcmConfig::paper_default().validate());
}

class ForMemoryTest : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ForMemoryTest, StaysWithinBudgetAndClose) {
  const auto [memory, k] = GetParam();
  const FcmConfig config = FcmConfig::for_memory(memory, 2, k, {8, 16, 32});
  EXPECT_LE(config.memory_bytes(), memory);
  // Divisibility rounding loses at most one k^(L-1) leaf group per tree.
  EXPECT_GT(config.memory_bytes(), memory * 9 / 10);
  EXPECT_NO_THROW(config.validate());
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, ForMemoryTest,
    ::testing::Combine(::testing::Values(500'000, 1'000'000, 1'500'000, 2'500'000),
                       ::testing::Values(2, 4, 8, 16, 32)));

TEST(FcmConfig, ForMemoryRejectsTinyBudget) {
  EXPECT_THROW(FcmConfig::for_memory(10, 2, 8, {8, 16, 32}), std::invalid_argument);
}

TEST(FcmConfig, PaperDefaultShape) {
  const FcmConfig config = FcmConfig::paper_default();
  EXPECT_EQ(config.tree_count, 2u);
  EXPECT_EQ(config.k, 8u);
  EXPECT_EQ(config.stage_count(), 3u);
  EXPECT_LE(config.memory_bytes(), 1'500'000u);
}

}  // namespace
}  // namespace fcm::core
