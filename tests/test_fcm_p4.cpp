// The headline hardware claim: the FCM program running on the PISA pipeline
// model is bit-identical to the software sketch.
#include "pisa/fcm_p4.h"

#include <gtest/gtest.h>

#include "flow/synthetic.h"
#include "pisa/hardware_topk.h"

namespace fcm::pisa {
namespace {

core::FcmConfig pipeline_config(std::size_t k, std::uint64_t seed) {
  core::FcmConfig config;
  config.tree_count = 2;
  config.k = k;
  config.stage_bits = {8, 16, 32};
  config.leaf_count = k * k * 32;
  config.seed = seed;
  return config;
}

class FcmP4EquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(FcmP4EquivalenceTest, BitIdenticalToSoftwareSketch) {
  const auto [k, seed] = GetParam();
  const core::FcmConfig config = pipeline_config(k, seed);
  core::FcmSketch software(config);
  FcmP4Program hardware(config);

  flow::SyntheticTraceConfig trace_config;
  trace_config.packet_count = 60000;
  trace_config.flow_count = 6000;
  trace_config.seed = seed;
  const flow::Trace trace = flow::SyntheticTraceGenerator(trace_config).generate();

  for (const flow::Packet& p : trace.packets()) {
    const std::uint64_t sw = software.update(p.key);
    const std::uint64_t hw = hardware.update(p.key);
    ASSERT_EQ(sw, hw) << "write-and-return estimates diverged";
  }

  // Registers match the software tree stages exactly.
  for (std::size_t t = 0; t < config.tree_count; ++t) {
    for (std::size_t l = 1; l <= config.stage_count(); ++l) {
      const auto& cells = hardware.level_registers(t, l).cells;
      const auto stage = software.tree(t).stage(l);
      ASSERT_EQ(cells.size(), stage.size());
      for (std::size_t i = 0; i < cells.size(); ++i) {
        ASSERT_EQ(cells[i], stage[i]) << "tree " << t << " level " << l;
      }
    }
  }

  // Count-queries agree for every flow.
  const flow::GroundTruth truth(trace);
  for (const auto& [key, size] : truth.flow_sizes()) {
    ASSERT_EQ(software.query(key), hardware.query(key));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FcmP4EquivalenceTest,
    ::testing::Combine(::testing::Values(2, 8, 16), ::testing::Values(1, 5)));

TEST(FcmP4Program, FitsHardwareBudget) {
  // The paper's 1.3 MB Tofino configuration passes validation (stage count,
  // sALUs, SRAM placement).
  const core::FcmConfig config =
      core::FcmConfig::for_memory(1'300'000, 2, 8, {8, 16, 32});
  EXPECT_NO_THROW(FcmP4Program{config});
}

TEST(FcmP4Program, RejectsTooManyTrees) {
  core::FcmConfig config = pipeline_config(8, 1);
  config.tree_count = 5;
  EXPECT_THROW(FcmP4Program{config}, std::invalid_argument);
}

TEST(FcmP4Program, ClearResetsRegisters) {
  const core::FcmConfig config = pipeline_config(4, 2);
  FcmP4Program program(config);
  program.update(flow::FlowKey{5});
  program.clear();
  EXPECT_EQ(program.query(flow::FlowKey{5}), 0u);
}

// --- TCAM cardinality on the P4 program -------------------------------------

TEST(FcmP4Cardinality, TcamMatchesExactWithinBudget) {
  FcmP4Program program(pipeline_config(8, 11));
  for (std::uint32_t i = 1; i <= 500; ++i) {
    program.update(flow::FlowKey{i * 2654435761u});
  }
  const double tcam = program.estimate_cardinality_tcam();
  EXPECT_NEAR(tcam, 500.0, 500.0 * 0.08 + 5.0);
  // Table is orders smaller than a per-w0 table.
  EXPECT_LT(program.cardinality_table().entry_count(),
            program.config().leaf_count);
}

// --- hardware TopK -----------------------------------------------------------

TEST(HardwareTopKFilter, AbsoluteVoteEviction) {
  HardwareTopKFilter filter(1, /*eviction_votes=*/4);
  filter.offer(flow::FlowKey{1});
  for (int i = 0; i < 1000; ++i) filter.offer(flow::FlowKey{1});
  // The incumbent's count is irrelevant: 4 mismatches evict.
  using Outcome = sketch::TopKFilter::Offer::Outcome;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(filter.offer(flow::FlowKey{2}).outcome, Outcome::kPassThrough);
  }
  const auto offer = filter.offer(flow::FlowKey{2});
  EXPECT_EQ(offer.outcome, Outcome::kEvicted);
  EXPECT_EQ(offer.evicted_count, 1001u);
}

TEST(HardwareFcmTopK, NeverUnderestimates) {
  flow::SyntheticTraceConfig trace_config;
  trace_config.packet_count = 100000;
  trace_config.flow_count = 10000;
  const flow::Trace trace = flow::SyntheticTraceGenerator(trace_config).generate();
  const flow::GroundTruth truth(trace);

  HardwareFcmTopK hw(pipeline_config(16, 3), 512);
  for (const flow::Packet& p : trace.packets()) hw.update(p.key);
  for (const auto& [key, size] : truth.flow_sizes()) {
    ASSERT_GE(hw.query(key), size);
  }
}

TEST(HardwareTopKFilter, RejectsBadParameters) {
  EXPECT_THROW(HardwareTopKFilter(0), std::invalid_argument);
  EXPECT_THROW(HardwareTopKFilter(4, 0), std::invalid_argument);
}

}  // namespace
}  // namespace fcm::pisa
