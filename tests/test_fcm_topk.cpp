#include "fcm/fcm_topk.h"

#include <gtest/gtest.h>

#include "flow/synthetic.h"
#include "metrics/metrics.h"

namespace fcm::core {
namespace {

FcmTopK::Config small_config(std::uint64_t seed = 0x123) {
  FcmTopK::Config config;
  config.fcm = FcmConfig::for_memory(120'000, 2, 16, {8, 16, 32}, seed);
  config.topk_entries = 256;
  return config;
}

TEST(FcmTopK, HeavyFlowPinnedExactly) {
  FcmTopK topk(small_config());
  for (int i = 0; i < 5000; ++i) topk.update(flow::FlowKey{1});
  EXPECT_EQ(topk.query(flow::FlowKey{1}), 5000u);
}

TEST(FcmTopK, ForMemorySplitsBudget) {
  const FcmTopK topk = FcmTopK::for_memory(500'000, 2, 16, 4096);
  EXPECT_LE(topk.memory_bytes(), 500'000u);
  EXPECT_GE(topk.memory_bytes(), 450'000u);
  EXPECT_EQ(topk.filter().entry_count(), 4096u);
  EXPECT_EQ(topk.memory_bytes(), topk.sketch().memory_bytes() + 4096 * 8);
  EXPECT_THROW(FcmTopK::for_memory(1000, 2, 16, 4096), std::invalid_argument);
}

class FcmTopKPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FcmTopKPropertyTest, NeverUnderestimates) {
  flow::SyntheticTraceConfig trace_config;
  trace_config.packet_count = 150000;
  trace_config.flow_count = 15000;
  trace_config.seed = GetParam();
  const flow::Trace trace = flow::SyntheticTraceGenerator(trace_config).generate();
  const flow::GroundTruth truth(trace);

  FcmTopK topk(small_config(GetParam()));
  for (const flow::Packet& p : trace.packets()) topk.update(p.key);

  for (const auto& [key, size] : truth.flow_sizes()) {
    ASSERT_GE(topk.query(key), size) << "flow " << key.value;
  }
}

TEST_P(FcmTopKPropertyTest, TotalMassPreservedAcrossFilterAndSketch) {
  flow::SyntheticTraceConfig trace_config;
  trace_config.packet_count = 100000;
  trace_config.flow_count = 10000;
  trace_config.seed = GetParam();
  const flow::Trace trace = flow::SyntheticTraceGenerator(trace_config).generate();

  FcmTopK topk(small_config(GetParam() + 7));
  for (const flow::Packet& p : trace.packets()) topk.update(p.key);

  std::uint64_t filter_mass = 0;
  for (const auto& entry : topk.filter().entries()) filter_mass += entry.count;
  // Every packet is either in the filter or in (every tree of) the sketch.
  EXPECT_EQ(filter_mass + topk.sketch().tree(0).total_count(), trace.size());
  EXPECT_EQ(filter_mass + topk.sketch().tree(1).total_count(), trace.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FcmTopKPropertyTest, ::testing::Values(1, 2, 3));

TEST(FcmTopK, HeavyHittersCombineFilterAndSketch) {
  FcmTopK topk(small_config());
  topk.set_heavy_hitter_threshold(100);
  for (int i = 0; i < 500; ++i) topk.update(flow::FlowKey{11});
  for (int i = 0; i < 20; ++i) topk.update(flow::FlowKey{22});
  const auto heavy = topk.heavy_hitters(100);
  ASSERT_EQ(heavy.size(), 1u);
  EXPECT_EQ(heavy[0], flow::FlowKey{11});
}

TEST(FcmTopK, CardinalityCountsFilterResidents) {
  FcmTopK topk(small_config());
  for (std::uint32_t k = 1; k <= 100; ++k) {
    for (int i = 0; i < 20; ++i) topk.update(flow::FlowKey{k});
  }
  EXPECT_NEAR(topk.estimate_cardinality(), 100.0, 10.0);
}

TEST(FcmTopK, TopkFlowsExposesResidents) {
  FcmTopK topk(small_config());
  for (int i = 0; i < 50; ++i) topk.update(flow::FlowKey{5});
  const auto flows = topk.topk_flows();
  ASSERT_TRUE(flows.contains(flow::FlowKey{5}));
  EXPECT_EQ(flows.at(flow::FlowKey{5}), 50u);
}

// FlowKey{0} is the filter's empty-bucket sentinel: update() never installs
// it, so its packets pass through to the sketch, which answers its queries.
TEST(FcmTopK, ZeroKeyPassesThroughToTheSketch) {
  FcmTopK topk(small_config());
  std::uint64_t zeros = 0;
  for (std::uint32_t i = 0; i < 300; ++i) {
    const flow::FlowKey key{i % 3 == 0 ? 0u : 1 + i % 7};
    topk.update(key);
    zeros += key.value == 0 ? 1 : 0;
  }
  for (const auto& entry : topk.filter().entries()) {
    EXPECT_NE(entry.key, flow::FlowKey{0});
  }
  EXPECT_EQ(topk.query(flow::FlowKey{0}), topk.sketch().query(flow::FlowKey{0}));
  EXPECT_GE(topk.query(flow::FlowKey{0}), zeros);
}

TEST(FcmTopK, ClearResets) {
  FcmTopK topk(small_config());
  for (int i = 0; i < 100; ++i) topk.update(flow::FlowKey{5});
  topk.clear();
  EXPECT_EQ(topk.query(flow::FlowKey{5}), 0u);
  EXPECT_TRUE(topk.topk_flows().empty());
}

TEST(FcmTopK, FilterReducesSketchLoad) {
  // With the filter absorbing heavy flows, the sketch sees less mass than
  // the plain FCM would — the mechanism behind the paper's §6 claim.
  flow::SyntheticTraceConfig trace_config;
  trace_config.packet_count = 200000;
  trace_config.flow_count = 10000;
  trace_config.zipf_alpha = 1.3;
  const flow::Trace trace = flow::SyntheticTraceGenerator(trace_config).generate();

  FcmTopK topk(small_config());
  FcmSketch plain(small_config().fcm);
  for (const flow::Packet& p : trace.packets()) {
    topk.update(p.key);
    plain.update(p.key);
  }
  EXPECT_LT(topk.sketch().tree(0).total_count(), plain.tree(0).total_count() / 2);
}

}  // namespace
}  // namespace fcm::core
