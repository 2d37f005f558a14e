#include "controlplane/em.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "flow/synthetic.h"
#include "sketch/mrac.h"

namespace fcm::control {
namespace {

VirtualCounterArray single_vc(std::uint64_t value, std::uint32_t degree,
                              std::size_t leaf_count, std::uint64_t theta1) {
  VirtualCounterArray array;
  array.leaf_count = leaf_count;
  array.leaf_counting_max = theta1;
  array.counters.push_back(VirtualCounter{value, degree});
  return array;
}

TEST(EmFsdEstimator, RejectsEmptyInput) {
  EXPECT_THROW(EmFsdEstimator({}, {}), std::invalid_argument);
}

TEST(EmFsdEstimator, CollisionFreeCountersRecoverExactly) {
  // 100 degree-1 counters of value 3 in a large array: the dominant
  // explanation is 100 flows of size 3.
  VirtualCounterArray array;
  array.leaf_count = 100000;
  array.leaf_counting_max = 254;
  for (int i = 0; i < 100; ++i) array.counters.push_back(VirtualCounter{3, 1});
  EmConfig config;
  config.max_iterations = 8;
  const FlowSizeDistribution fsd = EmFsdEstimator({array}, config).run();
  EXPECT_NEAR(fsd.counts()[3], 100.0, 2.0);
  EXPECT_NEAR(fsd.total_flows(), 100.0, 3.0);
}

TEST(EmFsdEstimator, SplitsObviousCollisions) {
  // 1000 counters of value 1 and 10 of value 2 in a tiny (w=100) array:
  // with n ~ 1000 flows in 100 slots, collisions are the norm, and EM must
  // explain the 2-counters mostly as two size-1 flows rather than inventing
  // size-2 flows. (lambda_1 ~ 10 per slot.)
  VirtualCounterArray array;
  array.leaf_count = 100;
  array.leaf_counting_max = 1u << 20;
  for (int i = 0; i < 90; ++i) array.counters.push_back(VirtualCounter{11, 1});
  for (int i = 0; i < 10; ++i) array.counters.push_back(VirtualCounter{12, 1});
  EmConfig config;
  config.max_iterations = 10;
  const FlowSizeDistribution fsd = EmFsdEstimator({array}, config).run();
  // Exact recovery is not expected; the estimate must keep total mass.
  EXPECT_NEAR(fsd.total_packets(), 90.0 * 11 + 10.0 * 12, 1.0);
}

TEST(EmFsdEstimator, MassConservedEachIteration) {
  // The EM redistributes counter mass over flow sizes; total packet mass is
  // invariant across iterations (up to the fallback paths, which are exact).
  VirtualCounterArray array;
  array.leaf_count = 1000;
  array.leaf_counting_max = 254;
  for (int v = 1; v <= 50; ++v) {
    for (int i = 0; i < 5; ++i) {
      array.counters.push_back(VirtualCounter{static_cast<std::uint64_t>(v), 1});
    }
  }
  const double expected_mass = 5.0 * (50.0 * 51.0 / 2.0);
  EmConfig config;
  config.max_iterations = 1;
  EmFsdEstimator estimator({array}, config);
  EXPECT_NEAR(estimator.current().total_packets(), expected_mass, 1e-6);
  for (int i = 0; i < 5; ++i) {
    estimator.iterate();
    EXPECT_NEAR(estimator.current().total_packets(), expected_mass, expected_mass * 1e-9);
  }
}

TEST(EmFsdEstimator, PaperOmegaConstraintForMergedCounters) {
  // The §4.3 example: a degree-2 virtual counter of value 9 on a tree with
  // theta_1 = 2 can only be explained by two flows of size >= 3 (each merged
  // path overflowed); the two-flow combos are {3,6} and {4,5}. Ω adds one
  // small flow (< ell = 3) colliding into a merged path: {1,3,5}, {1,4,4}
  // and {2,3,4}.
  const VirtualCounterArray array = single_vc(9, 2, 1024, 2);
  EmConfig config;
  config.max_iterations = 3;
  const FlowSizeDistribution fsd = EmFsdEstimator({array}, config).run();
  EXPECT_GT(fsd.counts()[1], 0.0);  // {1,3,5} and {1,4,4}
  EXPECT_GT(fsd.counts()[2], 0.0);  // {2,3,4}
  EXPECT_LT(fsd.counts()[1] + fsd.counts()[2], 1.0);  // at most one extra flow
  EXPECT_NEAR(fsd.total_packets(), 9.0, 1e-9);
  EXPECT_NEAR(fsd.counts()[7], 0.0, 1e-9);  // {2,7} is invalid: 2 <= theta
  EXPECT_NEAR(fsd.counts()[8], 0.0, 1e-9);  // {1,8} is invalid
  EXPECT_NEAR(fsd.counts()[9], 0.0, 1e-9);  // one flow cannot merge 2 paths
  const double mass_in_valid_range =
      fsd.counts()[3] + fsd.counts()[4] + fsd.counts()[5] + fsd.counts()[6];
  EXPECT_NEAR(mass_in_valid_range, 2.0, 1e-6);
}

TEST(EmFsdEstimator, LargeCountersUseFallbackSplit) {
  // Values above the enumeration cap (300, inclusive) must still be
  // accounted for, as one flow.
  EmConfig config;
  config.max_iterations = 2;
  for (const std::uint64_t value : {301u, 100000u}) {
    const auto fsd = EmFsdEstimator({single_vc(value, 1, 1024, 254)}, config).run();
    EXPECT_EQ(fsd.counts()[value], 1.0) << value;
    EXPECT_EQ(fsd.counts()[value - 1], 0.0) << value;
  }
  // At the cap the counter is enumerated: {299, 1} gets a (tiny) posterior.
  const auto at_cap = EmFsdEstimator({single_vc(300, 1, 1024, 254)}, config).run();
  EXPECT_GT(at_cap.counts()[299], 0.0);
}

TEST(EmFsdEstimator, HighDegreeFallback) {
  // Degree above the enumeration limit (3, inclusive): minimal-flow split.
  EmConfig config;
  config.max_iterations = 1;
  const auto six = EmFsdEstimator({single_vc(2000, 6, 4096, 254)}, config).run();
  // 5 flows of 255 and one of 2000 - 5*255 = 725.
  EXPECT_NEAR(six.counts()[255], 5.0, 1e-9);
  EXPECT_NEAR(six.counts()[725], 1.0, 1e-9);
  // Residual 10 over the paths' mandatory 255 each: degree 4 splits into
  // {255, 255, 255, 265} and nothing else, degree 3 is enumerated and gives
  // {255, 256, 264} a posterior.
  const auto four =
      EmFsdEstimator({single_vc(4 * 255 + 10, 4, 4096, 254)}, config).run();
  EXPECT_EQ(four.counts()[255], 3.0);
  EXPECT_EQ(four.counts()[265], 1.0);
  EXPECT_EQ(four.counts()[256], 0.0);
  const auto three =
      EmFsdEstimator({single_vc(3 * 255 + 10, 3, 4096, 254)}, config).run();
  EXPECT_GT(three.counts()[256], 0.0);
}

TEST(EmFsdEstimator, MultiTreeAveragesTrees) {
  // Two identical trees must give the same answer as one (Eqn. 5).
  const VirtualCounterArray array = single_vc(5, 1, 1000, 254);
  EmConfig config;
  config.max_iterations = 3;
  const auto single = EmFsdEstimator({array}, config).run();
  const auto doubled = EmFsdEstimator({array, array}, config).run();
  ASSERT_EQ(single.counts().size(), doubled.counts().size());
  for (std::size_t j = 0; j < single.counts().size(); ++j) {
    EXPECT_NEAR(single.counts()[j], doubled.counts()[j], 1e-9);
  }
}

TEST(EmFsdEstimator, MultithreadMatchesSinglethread) {
  flow::SyntheticTraceConfig trace_config;
  trace_config.packet_count = 50000;
  trace_config.flow_count = 5000;
  const flow::Trace trace = flow::SyntheticTraceGenerator(trace_config).generate();
  core::FcmConfig fcm_config = core::FcmConfig::for_memory(100'000, 2, 8, {8, 16, 32});
  core::FcmSketch sketch(fcm_config);
  for (const flow::Packet& p : trace.packets()) sketch.update(p.key);

  EmConfig single_config;
  single_config.max_iterations = 3;
  single_config.thread_count = 1;
  EmConfig multi_config = single_config;
  multi_config.thread_count = 4;

  const auto single = EmFsdEstimator(convert_sketch(sketch), single_config).run();
  const auto multi = EmFsdEstimator(convert_sketch(sketch), multi_config).run();
  ASSERT_EQ(single.counts().size(), multi.counts().size());
  for (std::size_t j = 0; j < single.counts().size(); ++j) {
    ASSERT_NEAR(single.counts()[j], multi.counts()[j], 1e-6);
  }
}

TEST(EmFsdEstimator, DeterministicAcrossRuns) {
  flow::SyntheticTraceConfig trace_config;
  trace_config.packet_count = 40000;
  trace_config.flow_count = 4000;
  const flow::Trace trace = flow::SyntheticTraceGenerator(trace_config).generate();
  core::FcmSketch sketch(core::FcmConfig::for_memory(80'000, 2, 8, {8, 16, 32}));
  for (const flow::Packet& p : trace.packets()) sketch.update(p.key);

  EmConfig config;
  config.max_iterations = 4;
  const auto first = EmFsdEstimator(convert_sketch(sketch), config).run();
  const auto second = EmFsdEstimator(convert_sketch(sketch), config).run();
  ASSERT_EQ(first.counts().size(), second.counts().size());
  for (std::size_t j = 0; j < first.counts().size(); ++j) {
    ASSERT_EQ(first.counts()[j], second.counts()[j]) << "size " << j;
  }
}

// FNV-1a over the IEEE-754 bit patterns of an FSD's counts (and its length):
// any change to the enumerated combination sets, their weights or the
// summation order shows up as a different hash.
std::uint64_t fsd_checksum(const FlowSizeDistribution& fsd) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  mix(fsd.counts().size());
  for (const double count : fsd.counts()) mix(std::bit_cast<std::uint64_t>(count));
  return hash;
}

TEST(EmFsdEstimator, GoldenChecksumPinsTruncationAndThreads) {
  // A seeded sketch whose virtual counters straddle every truncation
  // boundary of the Ω enumeration: degree-1 values on both sides of the
  // value cap, enumerable degree-2 and degree-3 counters, and counters above
  // the enumeration degree. The pinned hashes fix the FSD bit for bit.
  flow::SyntheticTraceConfig trace_config;
  trace_config.packet_count = 60000;
  trace_config.flow_count = 6000;
  trace_config.seed = 7;
  const flow::Trace trace = flow::SyntheticTraceGenerator(trace_config).generate();
  core::FcmSketch sketch(core::FcmConfig::for_memory(8'000, 2, 8, {4, 8, 32}));
  for (const flow::Packet& p : trace.packets()) sketch.update(p.key);
  const std::vector<VirtualCounterArray> arrays = convert_sketch(sketch);

  std::size_t small_single = 0, large_single = 0, merged_enumerable = 0,
              merged_high_degree = 0;
  for (const VirtualCounterArray& array : arrays) {
    const std::uint64_t ell = array.leaf_counting_max + 1;
    for (const VirtualCounter& vc : array.counters) {
      if (vc.value == 0) continue;
      if (vc.degree == 1) {
        ++(vc.value <= 300 ? small_single : large_single);
      } else if (vc.degree <= 3) {
        const std::uint64_t minimum = vc.degree * ell;
        merged_enumerable += vc.value >= minimum && vc.value - minimum <= 300;
      } else {
        ++merged_high_degree;
      }
    }
  }
  EXPECT_GT(small_single, 0u);
  EXPECT_GT(large_single, 0u);
  EXPECT_GT(merged_enumerable, 0u);
  EXPECT_GT(merged_high_degree, 0u);

  EmConfig config;
  config.max_iterations = 3;
  config.thread_count = 1;
  const std::uint64_t single = fsd_checksum(EmFsdEstimator(arrays, config).run());
  config.thread_count = 4;
  const std::uint64_t multi = fsd_checksum(EmFsdEstimator(arrays, config).run());
  EXPECT_EQ(single, 0x30f0be2b6ec3299dull);
  EXPECT_EQ(multi, 0xcd0ab0ef397e96e4ull);
}

TEST(EmFsdEstimator, IterationCallbackInvoked) {
  const VirtualCounterArray array = single_vc(5, 1, 1000, 254);
  EmConfig config;
  config.max_iterations = 4;
  std::size_t calls = 0;
  EmFsdEstimator({array}, config).run([&](std::size_t i, double seconds, const auto&) {
    EXPECT_EQ(i, calls);
    EXPECT_GE(seconds, 0.0);
    ++calls;
  });
  EXPECT_EQ(calls, 4u);
}

TEST(EmFsdEstimator, ImprovesWmreOverInitialGuessOnRealTraffic) {
  flow::SyntheticTraceConfig trace_config;
  trace_config.packet_count = 200000;
  trace_config.flow_count = 20000;
  const flow::Trace trace = flow::SyntheticTraceGenerator(trace_config).generate();
  const flow::GroundTruth truth(trace);
  const auto true_fsd = truth.flow_size_distribution();

  core::FcmConfig fcm_config = core::FcmConfig::for_memory(300'000, 2, 8, {8, 16, 32});
  core::FcmSketch sketch(fcm_config);
  for (const flow::Packet& p : trace.packets()) sketch.update(p.key);

  EmConfig config;
  config.max_iterations = 6;
  EmFsdEstimator estimator(convert_sketch(sketch), config);
  const double initial_wmre = estimator.current().wmre(true_fsd);
  const auto final_fsd = estimator.run();
  EXPECT_LT(final_fsd.wmre(true_fsd), initial_wmre);
  EXPECT_LT(final_fsd.wmre(true_fsd), 0.3);
}

TEST(EmFsdEstimator, MracCountersWork) {
  flow::SyntheticTraceConfig trace_config;
  trace_config.packet_count = 100000;
  trace_config.flow_count = 10000;
  const flow::Trace trace = flow::SyntheticTraceGenerator(trace_config).generate();
  const flow::GroundTruth truth(trace);

  sketch::Mrac mrac = sketch::Mrac::for_memory(200'000);
  for (const flow::Packet& p : trace.packets()) mrac.update(p.key);

  EmConfig config;
  config.max_iterations = 5;
  const auto fsd =
      EmFsdEstimator({from_plain_counters(mrac.counters())}, config).run();
  EXPECT_LT(fsd.wmre(truth.flow_size_distribution()), 0.3);
  EXPECT_NEAR(fsd.total_flows(), static_cast<double>(truth.flow_count()),
              truth.flow_count() * 0.15);
}

}  // namespace
}  // namespace fcm::control
