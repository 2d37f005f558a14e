#include "controlplane/virtual_counter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/random.h"
#include "flow/synthetic.h"

namespace fcm::control {
namespace {

core::FcmConfig paper_example_config() {
  core::FcmConfig config;
  config.tree_count = 1;
  config.k = 2;
  config.stage_bits = {2, 4, 8};
  config.leaf_count = 4;
  config.seed = 0x31337;
  return config;
}

flow::FlowKey key_for_leaf(const core::FcmTree& tree, std::size_t leaf) {
  for (std::uint32_t candidate = 1; candidate < 1u << 20; ++candidate) {
    if (tree.leaf_index(flow::FlowKey{candidate}) == leaf) {
      return flow::FlowKey{candidate};
    }
  }
  ADD_FAILURE() << "no key found for leaf " << leaf;
  return flow::FlowKey{0};
}

TEST(VirtualCounter, PaperFigure5Conversion) {
  // Rebuild the exact Figure 5 state (see test_fcm_tree.cpp) and check the
  // conversion produces V1={25,deg1}, V2={0,deg1}, V3={9,deg2}.
  const core::FcmConfig config = paper_example_config();
  core::FcmTree tree(config, common::make_hash(config.seed, 0));
  tree.add(key_for_leaf(tree, 0), 25);
  tree.add(key_for_leaf(tree, 2), 3);
  tree.add(key_for_leaf(tree, 3), 6);

  const VirtualCounterArray array = convert_tree(tree);
  ASSERT_EQ(array.counters.size(), 3u);
  EXPECT_EQ(array.leaf_count, 4u);
  EXPECT_EQ(array.leaf_counting_max, 2u);

  std::vector<std::pair<std::uint64_t, std::uint32_t>> counters;
  for (const auto& vc : array.counters) counters.emplace_back(vc.value, vc.degree);
  std::sort(counters.begin(), counters.end());
  EXPECT_EQ(counters[0], (std::pair<std::uint64_t, std::uint32_t>{0, 1}));
  EXPECT_EQ(counters[1], (std::pair<std::uint64_t, std::uint32_t>{9, 2}));
  EXPECT_EQ(counters[2], (std::pair<std::uint64_t, std::uint32_t>{25, 1}));

  EXPECT_EQ(array.total_value(), tree.total_count());
  EXPECT_EQ(array.nonempty_count(), 2u);
  EXPECT_EQ(array.max_degree(), 2u);
}

TEST(VirtualCounter, EmptyTreeConverts) {
  const core::FcmConfig config = paper_example_config();
  const core::FcmTree tree(config, common::make_hash(1, 0));
  const VirtualCounterArray array = convert_tree(tree);
  EXPECT_EQ(array.counters.size(), 4u);  // every leaf its own empty counter
  EXPECT_EQ(array.total_value(), 0u);
  EXPECT_EQ(array.nonempty_count(), 0u);
  EXPECT_EQ(array.max_degree(), 0u);
}

TEST(VirtualCounter, DegreeHistogram) {
  const core::FcmConfig config = paper_example_config();
  core::FcmTree tree(config, common::make_hash(config.seed, 0));
  tree.add(key_for_leaf(tree, 2), 3);
  tree.add(key_for_leaf(tree, 3), 6);
  const auto histogram = convert_tree(tree).degree_histogram();
  ASSERT_EQ(histogram.size(), 3u);
  EXPECT_EQ(histogram[1], 0u);
  EXPECT_EQ(histogram[2], 1u);
}

class ConversionPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(ConversionPropertyTest, TotalCountPreservedUnderLoad) {
  const auto [k, seed] = GetParam();
  core::FcmConfig config;
  config.tree_count = 2;
  config.k = k;
  config.stage_bits = {4, 8, 32};  // narrow stages force many overflows
  config.leaf_count = k * k * 16;
  config.seed = seed;
  core::FcmSketch sketch(config);

  common::Xoshiro256 rng(seed);
  for (int i = 0; i < 30000; ++i) {
    sketch.update(flow::FlowKey{static_cast<std::uint32_t>(rng.next_below(300) + 1)});
  }
  const auto arrays = convert_sketch(sketch);
  ASSERT_EQ(arrays.size(), 2u);
  for (std::size_t t = 0; t < arrays.size(); ++t) {
    EXPECT_EQ(arrays[t].total_value(), sketch.tree(t).total_count())
        << "tree " << t << ": conversion must preserve the total count";
    // Degrees sum to the number of leaves.
    std::uint64_t degree_sum = 0;
    for (const auto& vc : arrays[t].counters) degree_sum += vc.degree;
    EXPECT_EQ(degree_sum, config.leaf_count);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConversionPropertyTest,
    ::testing::Combine(::testing::Values(2, 4, 8), ::testing::Values(1, 2, 3)));

// Reference conversion: each leaf walks up to its terminal node (the first
// node that did not overflow, or its root), counters are numbered in
// first-leaf order, and every node's capped count goes to its terminal's
// counter.
std::vector<VirtualCounter> reference_conversion(const core::FcmTree& tree) {
  const auto& config = tree.config();
  const std::size_t levels = config.stage_count();
  const auto terminal_of = [&](std::size_t stage, std::size_t index) {
    while (stage < levels && tree.node_overflowed(stage, index)) {
      ++stage;
      index /= config.k;
    }
    return std::pair<std::size_t, std::size_t>{stage, index};
  };
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> counter_of;
  std::vector<VirtualCounter> counters;
  for (std::size_t leaf = 0; leaf < config.leaf_count; ++leaf) {
    const auto [it, inserted] = counter_of.try_emplace(terminal_of(1, leaf), counters.size());
    if (inserted) counters.push_back(VirtualCounter{0, 0});
    ++counters[it->second].degree;
  }
  for (std::size_t stage = 1; stage <= levels; ++stage) {
    for (std::size_t index = 0; index < config.width(stage); ++index) {
      const auto it = counter_of.find(terminal_of(stage, index));
      if (it != counter_of.end()) counters[it->second].value += tree.node_count(stage, index);
    }
  }
  return counters;
}

class ConversionReferenceTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ConversionReferenceTest, MatchesLeafWalkFieldForField) {
  // Narrow stages and heavy random flows overflow many paths and saturate
  // roots, so merged counters of every degree show up.
  const auto [k, stages] = GetParam();
  core::FcmConfig config;
  config.tree_count = 1;
  config.k = k;
  // Stage l is l + 1 bits wide: {2}, {2, 3} or {2, 3, 4}.
  config.stage_bits.clear();
  for (unsigned l = 1; l <= stages; ++l) config.stage_bits.push_back(l + 1);
  config.leaf_count = 4;
  for (std::size_t l = 1; l < stages; ++l) config.leaf_count *= k;
  std::size_t saturated_roots = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    core::FcmTree tree(config, common::make_hash(seed, 0));
    common::Xoshiro256 rng(seed);
    const std::size_t flows = rng.next_below(2 * config.leaf_count) + 1;
    for (std::size_t f = 0; f < flows; ++f) {
      tree.add(flow::FlowKey{static_cast<std::uint32_t>(rng.next_below(1u << 20) + 1)},
               rng.next_below(40) + 1);
    }
    for (std::size_t root = 0; root < config.width(stages); ++root) {
      saturated_roots += tree.node_overflowed(stages, root);
    }
    const std::vector<VirtualCounter> want = reference_conversion(tree);
    const VirtualCounterArray got = convert_tree(tree);
    ASSERT_EQ(got.counters.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.counters[i].degree, want[i].degree) << "seed " << seed << " counter " << i;
      EXPECT_EQ(got.counters[i].value, want[i].value) << "seed " << seed << " counter " << i;
    }
  }
  EXPECT_GT(saturated_roots, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConversionReferenceTest,
    ::testing::Combine(::testing::Values(3, 8), ::testing::Values(1, 2, 3)));

TEST(VirtualCounter, FromPlainCounters) {
  const std::vector<std::uint32_t> counters = {0, 5, 0, 7, 1};
  const VirtualCounterArray array = from_plain_counters(counters);
  EXPECT_EQ(array.leaf_count, 5u);
  EXPECT_EQ(array.total_value(), 13u);
  EXPECT_EQ(array.nonempty_count(), 3u);
  EXPECT_EQ(array.max_degree(), 1u);
  EXPECT_EQ(array.leaf_counting_max, 0u);
}

TEST(VirtualCounter, FromPlainCountersU8) {
  const std::vector<std::uint8_t> counters = {255, 0, 3};
  const VirtualCounterArray array = from_plain_counters_u8(counters);
  EXPECT_EQ(array.total_value(), 258u);
  EXPECT_EQ(array.nonempty_count(), 2u);
}

}  // namespace
}  // namespace fcm::control
