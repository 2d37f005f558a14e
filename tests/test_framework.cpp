// End-to-end tests of the FcmFramework facade (Figure 1), of FCM+TopK's
// single-switch pipeline (core::FcmTopK plus control::topk_fsd), and
// cross-module integration sanity checks against the paper's headline
// claims.
#include "framework/fcm_framework.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "controlplane/em.h"
#include "fcm/fcm_topk.h"
#include "flow/synthetic.h"
#include "metrics/evaluator.h"
#include "sketch/cm_sketch.h"

namespace fcm::framework {
namespace {

FcmFramework::Options small_options() {
  FcmFramework::Options options;
  options.fcm = core::FcmConfig::for_memory(150'000, 2, 8, {8, 16, 32});
  options.heavy_hitter_threshold = 100;
  options.em.max_iterations = 5;
  return options;
}

flow::Trace small_trace(std::uint64_t seed = 1) {
  flow::SyntheticTraceConfig config;
  config.packet_count = 200000;
  config.flow_count = 20000;
  config.seed = seed;
  return flow::SyntheticTraceGenerator(config).generate();
}

TEST(FcmFramework, EndToEndQueries) {
  const flow::Trace trace = small_trace();
  const flow::GroundTruth truth(trace);
  FcmFramework framework(small_options());
  framework.process(trace.packets());

  // Flow size: never underestimates.
  for (const auto& [key, size] : truth.flow_sizes()) {
    ASSERT_GE(framework.flow_size(key), size);
  }

  // Cardinality within 5%.
  EXPECT_NEAR(framework.cardinality(), static_cast<double>(truth.flow_count()),
              truth.flow_count() * 0.05);

  // Heavy hitters at the configured threshold.
  const auto reported = framework.heavy_hitters();
  const auto scores =
      metrics::classification_scores(reported, truth.heavy_hitters(100));
  EXPECT_GT(scores.f1, 0.95);

  // Control-plane report.
  const auto report = framework.analyze();
  EXPECT_LT(report.fsd.wmre(truth.flow_size_distribution()), 0.35);
  EXPECT_NEAR(report.entropy, truth.entropy(), truth.entropy() * 0.05);
}

// The same checks on FCM+TopK (§6): the single-switch core::FcmTopK with a
// 1024-entry filter in front of the framework's sketch geometry, its FSD
// from control::topk_fsd.
TEST(FcmTopKPipeline, EndToEndQueries) {
  const flow::Trace trace = small_trace();
  const flow::GroundTruth truth(trace);
  const FcmFramework::Options options = small_options();
  core::FcmTopK::Config config;
  config.fcm = options.fcm;
  config.topk_entries = 1024;
  core::FcmTopK topk(config);
  topk.set_heavy_hitter_threshold(options.heavy_hitter_threshold);
  for (const flow::Packet& packet : trace.packets()) topk.update(packet.key);

  for (const auto& [key, size] : truth.flow_sizes()) {
    ASSERT_GE(topk.query(key), size);
  }
  EXPECT_NEAR(topk.estimate_cardinality(),
              static_cast<double>(truth.flow_count()),
              truth.flow_count() * 0.05);
  const auto scores = metrics::classification_scores(
      topk.heavy_hitters(options.heavy_hitter_threshold),
      truth.heavy_hitters(100));
  EXPECT_GT(scores.f1, 0.95);

  const control::FlowSizeDistribution fsd = control::topk_fsd(topk, options.em);
  EXPECT_LT(fsd.wmre(truth.flow_size_distribution()), 0.35);
  EXPECT_NEAR(fsd.entropy(), truth.entropy(), truth.entropy() * 0.05);
}

// A move hands the sketch's buffers over instead of copying them, and the
// moved-to framework answers every query as the source did.
TEST(FcmFramework, MoveTakesTheBuffersAndKeepsEveryAnswer) {
  const flow::Trace trace = small_trace();
  FcmFramework source(small_options());
  source.process(trace.packets());
  const FcmFramework expected = source;
  const void* buffer = source.sketch().tree(0).stage(1).data();

  FcmFramework moved(std::move(source));
  EXPECT_EQ(moved.sketch().tree(0).stage(1).data(), buffer);
  FcmFramework assigned(small_options());
  assigned = std::move(moved);
  EXPECT_EQ(assigned.sketch().tree(0).stage(1).data(), buffer);

  for (const flow::Packet& packet : trace.packets()) {
    ASSERT_EQ(assigned.flow_size(packet.key), expected.flow_size(packet.key));
  }
  EXPECT_EQ(assigned.cardinality(), expected.cardinality());
  auto got_hh = assigned.heavy_hitters();
  auto expected_hh = expected.heavy_hitters();
  std::sort(got_hh.begin(), got_hh.end());
  std::sort(expected_hh.begin(), expected_hh.end());
  EXPECT_EQ(got_hh, expected_hh);
  EXPECT_EQ(assigned.overflow_promotion_count(),
            expected.overflow_promotion_count());
  EXPECT_EQ(assigned.memory_bytes(), expected.memory_bytes());
  const auto got_report = assigned.analyze();
  const auto expected_report = expected.analyze();
  EXPECT_EQ(got_report.fsd.counts(), expected_report.fsd.counts());
  EXPECT_EQ(got_report.entropy, expected_report.entropy);
}

TEST(FcmFramework, ResetClearsState) {
  FcmFramework framework(small_options());
  for (int i = 0; i < 1000; ++i) framework.process(flow::FlowKey{1});
  framework.reset();
  EXPECT_EQ(framework.flow_size(flow::FlowKey{1}), 0u);
  EXPECT_TRUE(framework.heavy_hitters().empty());
}

TEST(FcmFramework, HeavyChangesAcrossWindows) {
  flow::SyntheticTraceConfig config;
  config.packet_count = 150000;
  config.flow_count = 10000;
  config.zipf_alpha = 1.3;
  const flow::WindowPair pair = flow::make_window_pair(config, 0.4);
  const flow::GroundTruth truth_a(pair.window_a);
  const flow::GroundTruth truth_b(pair.window_b);

  FcmFramework::Options options = small_options();
  const std::uint64_t threshold = metrics::heavy_hitter_threshold(truth_a);
  options.heavy_hitter_threshold = threshold;

  FcmFramework window_a(options);
  FcmFramework window_b(options);
  window_a.process(pair.window_a.packets());
  window_b.process(pair.window_b.packets());

  const auto reported = FcmFramework::heavy_changes(window_a, window_b, threshold);
  const auto actual = flow::true_heavy_changes(truth_a, truth_b, threshold);
  ASSERT_FALSE(actual.empty());
  const auto scores = metrics::classification_scores(reported, actual);
  EXPECT_GT(scores.f1, 0.9);
}

TEST(FcmFramework, MemoryBytesIsTheSketchs) {
  const FcmFramework framework(small_options());
  EXPECT_GT(framework.memory_bytes(), 0u);
  EXPECT_EQ(framework.memory_bytes(), framework.options().fcm.memory_bytes());
}

TEST(FcmFramework, ByteCountingMode) {
  FcmFramework::Options options = small_options();
  options.heavy_hitter_threshold = 0;
  options.count_mode = FcmFramework::CountMode::kBytes;
  FcmFramework framework(options);
  framework.process(flow::Packet{flow::FlowKey{1}, 1500, 0});
  framework.process(flow::Packet{flow::FlowKey{1}, 500, 0});
  framework.process(flow::Packet{flow::FlowKey{2}, 64, 0});
  EXPECT_EQ(framework.flow_size(flow::FlowKey{1}), 2000u);
  EXPECT_EQ(framework.flow_size(flow::FlowKey{2}), 64u);
}

TEST(FcmFramework, CopyActsAsSnapshot) {
  FcmFramework framework(small_options());
  for (int i = 0; i < 500; ++i) framework.process(flow::FlowKey{9});
  const FcmFramework snapshot = framework;
  for (int i = 0; i < 500; ++i) framework.process(flow::FlowKey{9});
  EXPECT_EQ(snapshot.flow_size(flow::FlowKey{9}), 500u);
  EXPECT_EQ(framework.flow_size(flow::FlowKey{9}), 1000u);
}

TEST(FcmFramework, PartOptionsSplitTheThresholdRoundingUp) {
  FcmFramework::Options options = small_options();
  const auto part_threshold = [&](std::uint64_t threshold, std::size_t parts) {
    options.heavy_hitter_threshold = threshold;
    return FcmFramework::part_options(options, parts).heavy_hitter_threshold;
  };
  EXPECT_EQ(part_threshold(300, 1), 300u);
  EXPECT_EQ(part_threshold(300, 3), 100u);
  EXPECT_EQ(part_threshold(301, 3), 101u);
  EXPECT_EQ(part_threshold(0, 4), 0u) << "tracking off stays off";
  EXPECT_EQ(part_threshold(~std::uint64_t{0}, 2), std::uint64_t{1} << 63)
      << "no overflow rounding up near the top of the range";
  EXPECT_EQ(FcmFramework::part_options(options, 3).fcm, options.fcm);
  EXPECT_THROW(FcmFramework::part_options(options, 0), std::invalid_argument);
}

// Heavy-hitter tracking cannot be switched off after construction: a zero
// threshold is refused, and the options, the sketch's threshold and the
// recorded candidates all stay as they were.
TEST(FcmFramework, RequalifyToZeroIsRefusedAndChangesNothing) {
  FcmFramework::Options options = small_options();
  options.heavy_hitter_threshold = 8;
  FcmFramework framework(options);
  framework.process(small_trace().packets());
  const std::vector<flow::FlowKey> before = framework.heavy_hitters();
  ASSERT_FALSE(before.empty());

  EXPECT_THROW(framework.requalify_heavy_hitters(0), common::ContractViolation);
  EXPECT_EQ(framework.options().heavy_hitter_threshold, 8u);
  EXPECT_EQ(framework.heavy_hitters(), before);

  // A positive threshold still lifts both.
  framework.requalify_heavy_hitters(400);
  EXPECT_EQ(framework.options().heavy_hitter_threshold, 400u);
  EXPECT_LT(framework.heavy_hitters().size(), before.size());
  for (const flow::FlowKey key : framework.heavy_hitters()) {
    EXPECT_GE(framework.flow_size(key), 400u);
  }
}

// --- integration sanity: the paper's headline orderings --------------------

TEST(Integration, FcmBeatsCmOnEqualMemory) {
  const flow::Trace trace = small_trace(42);
  const flow::GroundTruth truth(trace);
  constexpr std::size_t kMemory = 150'000;

  core::FcmSketch fcm(core::FcmConfig::for_memory(kMemory, 2, 8, {8, 16, 32}));
  sketch::CmSketch cm = sketch::CmSketch::for_memory(kMemory, 3);
  for (const flow::Packet& p : trace.packets()) {
    fcm.update(p.key);
    cm.update(p.key);
  }
  const auto fcm_errors = metrics::size_errors(
      truth.flow_sizes(), [&](flow::FlowKey k) { return fcm.query(k); });
  const auto cm_errors = metrics::size_errors(
      truth.flow_sizes(), [&](flow::FlowKey k) { return cm.query(k); });
  EXPECT_LT(fcm_errors.are, cm_errors.are * 0.5)
      << "FCM should cut CM's flow-size error by well over half (§7.3)";
}

TEST(Integration, TopKImprovesOrMatchesFcm) {
  const flow::Trace trace = small_trace(43);
  const flow::GroundTruth truth(trace);
  constexpr std::size_t kMemory = 150'000;

  core::FcmSketch plain(core::FcmConfig::for_memory(kMemory, 2, 8, {8, 16, 32}));
  core::FcmTopK::Config topk_config;
  topk_config.fcm =
      core::FcmConfig::for_memory(kMemory - 1024 * 8, 2, 16, {8, 16, 32});
  topk_config.topk_entries = 1024;
  core::FcmTopK with_topk(topk_config);

  for (const flow::Packet& p : trace.packets()) {
    plain.update(p.key);
    with_topk.update(p.key);
  }

  const auto plain_errors = metrics::size_errors(
      truth.flow_sizes(), [&](flow::FlowKey k) { return plain.query(k); });
  const auto topk_errors = metrics::size_errors(
      truth.flow_sizes(), [&](flow::FlowKey k) { return with_topk.query(k); });
  EXPECT_LE(topk_errors.are, plain_errors.are * 1.1);
}

}  // namespace
}  // namespace fcm::framework
