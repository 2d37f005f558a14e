// Tests for Count-Sketch, MRAC, PyramidSketch (PCM), HashPipe and the
// cardinality estimators.
#include <gtest/gtest.h>

#include <cmath>

#include "flow/synthetic.h"
#include "metrics/evaluator.h"
#include "sketch/cardinality.h"
#include "sketch/count_sketch.h"
#include "sketch/hashpipe.h"
#include "sketch/mrac.h"
#include "sketch/pyramid_sketch.h"

namespace fcm::sketch {
namespace {

// --- Count-Sketch ---------------------------------------------------------

TEST(CountSketch, SingleFlowExact) {
  CountSketch cs(5, 1024);
  cs.add(flow::FlowKey{1}, 100);
  EXPECT_EQ(cs.query(flow::FlowKey{1}), 100u);
}

TEST(CountSketch, NegativeEstimatesClampToZeroInUnsignedQuery) {
  CountSketch cs(1, 4, 3);
  // Find two keys in the same cell with opposite signs.
  cs.add(flow::FlowKey{1}, 50);
  for (std::uint32_t k = 2; k < 100; ++k) {
    CountSketch probe(1, 4, 3);
    probe.add(flow::FlowKey{k}, 1);
    // regardless: unsigned query never underflows
    EXPECT_GE(probe.query(flow::FlowKey{k}), 0u);
  }
  EXPECT_GE(cs.signed_query(flow::FlowKey{1}), 0);
}

TEST(CountSketch, MedianAbsorbsOutliers) {
  CountSketch cs(5, 2048, 11);
  cs.add(flow::FlowKey{42}, 1000);
  for (std::uint32_t k = 100; k < 2000; ++k) cs.add(flow::FlowKey{k}, 1);
  const auto est = static_cast<double>(cs.query(flow::FlowKey{42}));
  EXPECT_NEAR(est, 1000.0, 50.0);
}

TEST(CountSketch, L2SquaredTracksTrueNorm) {
  CountSketch cs(5, 8192, 13);
  double true_l2 = 0.0;
  for (std::uint32_t k = 1; k <= 300; ++k) {
    const std::int64_t count = 1 + (k % 17);
    cs.add(flow::FlowKey{k}, count);
    true_l2 += static_cast<double>(count) * count;
  }
  EXPECT_NEAR(cs.l2_squared(), true_l2, true_l2 * 0.15);
}

TEST(CountSketch, RejectsBadGeometry) {
  EXPECT_THROW(CountSketch(0, 4), std::invalid_argument);
  EXPECT_THROW(CountSketch(4, 0), std::invalid_argument);
}

// --- MRAC -------------------------------------------------------------------

TEST(Mrac, SingleArraySemantics) {
  Mrac mrac(1024, 3);
  for (int i = 0; i < 10; ++i) mrac.update(flow::FlowKey{5});
  EXPECT_GE(mrac.query(flow::FlowKey{5}), 10u);
  EXPECT_EQ(mrac.memory_bytes(), 4096u);
}

TEST(Mrac, CountersSumToPackets) {
  Mrac mrac(512, 3);
  for (std::uint32_t i = 0; i < 5000; ++i) mrac.update(flow::FlowKey{i % 97 + 1});
  std::uint64_t total = 0;
  for (const auto v : mrac.counters()) total += v;
  EXPECT_EQ(total, 5000u);
}

TEST(Mrac, ForMemoryAndClear) {
  Mrac mrac = Mrac::for_memory(40'000);
  EXPECT_EQ(mrac.width(), 10'000u);
  mrac.update(flow::FlowKey{1});
  mrac.clear();
  EXPECT_EQ(mrac.query(flow::FlowKey{1}), 0u);
}

// --- PyramidSketch (PCM) ---------------------------------------------------

class PyramidExactTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PyramidExactTest, LoneFlowReconstructsExactly) {
  // Without collisions the hierarchical carry encoding is lossless.
  PyramidCmSketch pcm(4, 1 << 14, 21);
  const flow::FlowKey key{1234};
  for (std::uint64_t i = 0; i < GetParam(); ++i) pcm.update(key);
  EXPECT_EQ(pcm.query(key), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Counts, PyramidExactTest,
                         ::testing::Values(1, 15, 16, 17, 63, 64, 100, 255, 256,
                                           1000, 5000));

TEST(PyramidCmSketch, NeverUnderestimatesOnTraffic) {
  flow::SyntheticTraceConfig config;
  config.packet_count = 60000;
  config.flow_count = 5000;
  const flow::Trace trace = flow::SyntheticTraceGenerator(config).generate();
  const flow::GroundTruth truth(trace);
  PyramidCmSketch pcm = PyramidCmSketch::for_memory(200'000);
  metrics::feed(pcm, trace);
  std::size_t under = 0;
  for (const auto& [key, size] : truth.flow_sizes()) {
    if (pcm.query(key) < size) ++under;
  }
  // Pyramid's shared counting bits can in rare cases underestimate when the
  // climb stops early; it must stay a rare event.
  EXPECT_LE(under, truth.flow_count() / 100);
}

TEST(PyramidCmSketch, RejectsBadGeometry) {
  EXPECT_THROW(PyramidCmSketch(0, 64), std::invalid_argument);
  EXPECT_THROW(PyramidCmSketch(4, 1), std::invalid_argument);
}

// --- HashPipe ----------------------------------------------------------------

TEST(HashPipe, TracksSingleHeavyFlow) {
  HashPipe hp(6, 512);
  for (int i = 0; i < 1000; ++i) hp.update(flow::FlowKey{9});
  EXPECT_EQ(hp.query(flow::FlowKey{9}), 1000u);
  const auto flows = hp.tracked_flows();
  EXPECT_EQ(flows.at(flow::FlowKey{9}), 1000u);
}

TEST(HashPipe, HeavyHittersSurviveChurn) {
  flow::SyntheticTraceConfig config;
  config.packet_count = 200000;
  config.flow_count = 20000;
  config.zipf_alpha = 1.3;
  const flow::Trace trace = flow::SyntheticTraceGenerator(config).generate();
  const flow::GroundTruth truth(trace);
  HashPipe hp = HashPipe::for_memory(100'000);
  metrics::feed(hp, trace);
  const std::uint64_t threshold = metrics::heavy_hitter_threshold(truth);
  const auto true_heavy = truth.heavy_hitters(threshold);
  ASSERT_FALSE(true_heavy.empty());
  std::size_t found = 0;
  const auto tracked = hp.tracked_flows();
  for (const flow::FlowKey key : true_heavy) {
    if (tracked.contains(key) && tracked.at(key) >= threshold / 2) ++found;
  }
  EXPECT_GE(found, true_heavy.size() * 9 / 10);
}

TEST(HashPipe, MemoryAccounting) {
  EXPECT_EQ(HashPipe(6, 100).memory_bytes(), 4800u);
  EXPECT_EQ(HashPipe::for_memory(48'000).memory_bytes(), 48'000u);
}

// --- HyperLogLog -------------------------------------------------------------

class CardinalityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CardinalityTest, HyperLogLogWithinTenPercent) {
  const std::size_t n = GetParam();
  HyperLogLog hll(4096);
  for (std::uint32_t i = 0; i < n; ++i) hll.update(flow::FlowKey{i * 2654435761u + 1});
  EXPECT_NEAR(hll.estimate(), static_cast<double>(n), std::max(16.0, n * 0.10));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CardinalityTest,
                         ::testing::Values(10, 100, 1000, 10000, 100000));

TEST(HyperLogLog, RejectsBadRegisterCount) {
  EXPECT_THROW(HyperLogLog(15), std::invalid_argument);
  EXPECT_THROW(HyperLogLog(100), std::invalid_argument);  // not a power of two
}

TEST(HyperLogLog, ClearResets) {
  HyperLogLog hll(64);
  for (std::uint32_t i = 1; i < 100; ++i) hll.update(flow::FlowKey{i});
  hll.clear();
  EXPECT_LT(hll.estimate(), 1.0);
}

}  // namespace
}  // namespace fcm::sketch
