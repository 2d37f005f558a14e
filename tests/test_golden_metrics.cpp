// Golden-snapshot regression tests (DESIGN.md §8, testing).
//
// One fixed-seed synthetic trace runs through the full stack
// (FcmFramework ingest -> EM -> entropy/cardinality) and the resulting
// accuracy metrics are pinned against golden values with tolerance bands.
// The bands are wide enough for cross-platform libm noise (a few percent)
// but tight enough that an accuracy regression — a broken hash, a botched
// EM update, a miscounted stage — trips immediately.
//
// The second half pins the observability pipeline: the fcm.metrics.v1 JSON
// snapshot schema, so downstream dashboards can rely on the exporter format.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "datapath/capture_ingest.h"
#include "flow/synthetic.h"
#include "framework/fcm_framework.h"
#include "obs/metrics_registry.h"
#include "runtime/sharded_framework.h"

namespace fcm {
namespace {

// Everything fixed: trace seed, sketch seed, geometry, EM iterations.
constexpr std::uint64_t kTraceSeed = 20201204;
constexpr std::size_t kPackets = 1 << 16;
constexpr std::size_t kFlows = 8'000;
constexpr std::uint64_t kSketchSeed = 0x5555aaaa;

// Golden values measured from the pinned configuration above (single run,
// fully deterministic; see EXPERIMENTS.md "Observability" for the recording
// procedure). Bands are relative; "worse" means larger error.
// Re-recorded when table-index reduction switched from modulo to Lemire
// fast-range (DESIGN.md §9) — same hash quality, different leaf mappings.
constexpr double kGoldenWmre = 0.01983043396;
constexpr double kGoldenAre = 0.01349049240;
constexpr double kGoldenEntropyRelErr = 0.00058382545;
constexpr double kGoldenCardinalityRelErr = 0.00518509403;

flow::Trace golden_trace() {
  flow::SyntheticTraceConfig config;
  config.packet_count = kPackets;
  config.flow_count = kFlows;
  config.seed = kTraceSeed;
  return flow::SyntheticTraceGenerator(config).generate();
}

framework::FcmFramework golden_framework() {
  framework::FcmFramework::Options options;
  options.fcm =
      core::FcmConfig::for_memory(150'000, 2, 8, {8, 16, 32}, kSketchSeed);
  options.em.max_iterations = 5;
  return framework::FcmFramework(options);
}

struct GoldenRun {
  double wmre = 0.0;
  double are = 0.0;
  double entropy_rel_error = 0.0;
  double cardinality_rel_error = 0.0;
};

GoldenRun run_golden_pipeline() {
  const flow::Trace trace = golden_trace();
  const flow::GroundTruth truth(trace);

  framework::FcmFramework framework = golden_framework();
  for (const flow::Packet& packet : trace.packets()) {
    framework.process(packet.key);
  }
  const framework::FcmFramework::Report report = framework.analyze();

  GoldenRun run;
  run.wmre = report.fsd.wmre(truth.flow_size_distribution());
  double are = 0.0;
  for (const auto& [key, size] : truth.flow_sizes()) {
    const double estimate = static_cast<double>(framework.flow_size(key));
    are += std::abs(estimate - static_cast<double>(size)) /
           static_cast<double>(size);
  }
  run.are = are / static_cast<double>(truth.flow_count());
  run.entropy_rel_error =
      std::abs(report.entropy - truth.entropy()) / truth.entropy();
  run.cardinality_rel_error =
      std::abs(report.cardinality - static_cast<double>(truth.flow_count())) /
      static_cast<double>(truth.flow_count());
  return run;
}

// The pipeline is deterministic, so one shared run feeds every golden check
// (and seeds the registry for the exporter-schema tests below).
const GoldenRun& golden_run() {
  static const GoldenRun run = run_golden_pipeline();
  return run;
}

void expect_band(double value, double golden, double rel_band,
                 const char* what) {
  ASSERT_TRUE(std::isfinite(value)) << what;
  ASSERT_GT(golden, 0.0) << what << ": golden value not recorded yet; actual "
                         << value;
  EXPECT_LE(value, golden * (1.0 + rel_band))
      << what << " regressed: got " << value << ", golden " << golden;
  // Dramatic improvement is suspicious too (usually a broken evaluator, not
  // a better sketch): flag anything below a tenth of the golden.
  EXPECT_GE(value, golden * 0.1)
      << what << " implausibly small: got " << value << ", golden " << golden
      << " (update the golden if this is a real accuracy win)";
}

// --- accuracy goldens --------------------------------------------------------

TEST(GoldenMetrics, FlowSizeWmre) {
  expect_band(golden_run().wmre, kGoldenWmre, 0.15, "FSD WMRE");
}

TEST(GoldenMetrics, FlowSizeAre) {
  expect_band(golden_run().are, kGoldenAre, 0.15, "flow-size ARE");
}

TEST(GoldenMetrics, EntropyRelativeError) {
  expect_band(golden_run().entropy_rel_error, kGoldenEntropyRelErr, 0.25,
              "entropy relative error");
}

TEST(GoldenMetrics, CardinalityRelativeError) {
  expect_band(golden_run().cardinality_rel_error, kGoldenCardinalityRelErr,
              0.25, "cardinality relative error");
}

// --- fixture-capture goldens -------------------------------------------------
//
// The committed pcap fixture (tests/data/fixture.pcap, regenerated bit-exactly
// by tools/make_pcap_fixture.py) runs through the REAL decode path — pcap
// reader, hostile-input parser — into a plain FcmFramework, and the
// end-to-end accuracy lands in the same golden bands machinery as the
// synthetic trace. A separate check drives the byte-mode cache stage of the
// sharded runtime over the same capture. This pins the whole
// capture-to-metrics pipeline, not just the sketch.

constexpr double kFixtureWmre = 0.00218366857;
constexpr double kFixtureCardinalityRelErr = 0.00166779907;

datapath::DecodedCapture load_fixture() {
  return datapath::load_capture(std::string(FCM_TEST_DATA_DIR) +
                                "/fixture.pcap");
}

GoldenRun run_fixture_pipeline() {
  const datapath::DecodedCapture decoded = load_fixture();
  const flow::GroundTruth truth(decoded.trace);

  framework::FcmFramework::Options options;
  options.fcm =
      core::FcmConfig::for_memory(150'000, 2, 8, {8, 16, 32}, kSketchSeed);
  options.em.max_iterations = 5;
  options.metrics = nullptr;  // keep the exporter-schema tests unpolluted
  framework::FcmFramework framework(options);
  for (const flow::Packet& packet : decoded.trace.packets()) {
    framework.process(packet.key);
  }
  const framework::FcmFramework::Report report = framework.analyze();

  GoldenRun run;
  run.wmre = report.fsd.wmre(truth.flow_size_distribution());
  run.cardinality_rel_error =
      std::abs(report.cardinality - static_cast<double>(truth.flow_count())) /
      static_cast<double>(truth.flow_count());
  return run;
}

const GoldenRun& fixture_run() {
  static const GoldenRun run = run_fixture_pipeline();
  return run;
}

TEST(GoldenFixture, CaptureDecodesDeterministically) {
  const datapath::DecodedCapture decoded = load_fixture();
  // The generator commits to these totals; a fixture or reader change that
  // shifts them silently would invalidate the golden bands below.
  EXPECT_EQ(decoded.stats.capture.records, 1150u);
  EXPECT_EQ(decoded.stats.parsed, decoded.trace.size());
  EXPECT_GT(decoded.stats.parse_failures(), 0u);  // ARP frames, by design
  EXPECT_LT(decoded.stats.parse_failures(), decoded.stats.capture.records / 10);
}

TEST(GoldenFixture, FlowSizeWmre) {
  // The fixture is tiny (~1.1k packets over ~240 flows), so the FSD estimate
  // is driven by EM over a nearly-empty sketch; the band still trips on
  // hash/EM/decode regressions.
  expect_band(fixture_run().wmre, kFixtureWmre, 0.15, "fixture FSD WMRE");
}

TEST(GoldenFixture, ByteModeCacheAbsorbsTheWholeFixture) {
  // Every fixture flow fits in the production cache (~240 flows, 8192 x 4
  // entries), so a 1-shard byte-mode runtime evicts nothing: each nonzero
  // key is one hit or miss, and the rotation drain hands back every byte.
  // An eviction means the cache started spilling traffic it used to absorb.
  const datapath::DecodedCapture decoded = load_fixture();
  obs::MetricsRegistry registry;
  runtime::ShardedFcmFramework::Options options;
  options.framework.fcm =
      core::FcmConfig::for_memory(150'000, 2, 8, {8, 16, 32}, kSketchSeed);
  options.framework.count_mode = framework::FcmFramework::CountMode::kBytes;
  options.shard_count = 1;
  options.cache_entries = 8192;
  options.cache_ways = 4;
  options.metrics = &registry;
  runtime::ShardedFcmFramework sharded(options);
  sharded.ingest(std::span<const flow::Packet>(decoded.trace.packets()));
  const runtime::ShardedFcmFramework::EpochReport report = sharded.rotate();
  sharded.stop();

  std::uint64_t bytes = 0;
  std::uint64_t nonzero_keys = 0;
  for (const flow::Packet& packet : decoded.trace.packets()) {
    bytes += packet.bytes;
    nonzero_keys += packet.key.value != 0 ? 1 : 0;
  }
  EXPECT_EQ(registry.counter("fcm_datapath_cache_evictions_total").value(),
            0u);
  EXPECT_EQ(registry.counter("fcm_datapath_cache_hits_total").value() +
                registry.counter("fcm_datapath_cache_misses_total").value(),
            nonzero_keys);
  EXPECT_EQ(report.bytes, bytes);
}

TEST(GoldenFixture, CardinalityRelativeError) {
  expect_band(fixture_run().cardinality_rel_error, kFixtureCardinalityRelErr,
              0.25, "fixture cardinality relative error");
}

// --- metrics exporter schema -------------------------------------------------

TEST(GoldenMetrics, JsonSnapshotSchema) {
  golden_run();  // populate the registry via analyze()
  const std::string json = obs::MetricsRegistry::global().snapshot().to_json();

  // Versioned schema header.
  EXPECT_NE(json.find("\"schema\": \"fcm.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": ["), std::string::npos);

  // Control-plane series written by analyze() and the EM loop.
  for (const char* series :
       {"fcm_framework_analyze_total", "fcm_framework_analyze_seconds",
        "fcm_em_runs_total", "fcm_em_iterations_total",
        "fcm_em_iteration_seconds", "fcm_em_convergence_delta"}) {
    EXPECT_NE(json.find(std::string("\"name\": \"") + series + "\""),
              std::string::npos)
        << "missing series " << series;
  }

  // Histogram samples expose cumulative buckets with le edges.
  EXPECT_NE(json.find("\"buckets\": ["), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"+Inf\""), std::string::npos);
}

TEST(GoldenMetrics, AnalyzeCountsRuns) {
  golden_run();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  // The shared golden run called analyze() exactly once in this process.
  EXPECT_GE(registry.counter("fcm_framework_analyze_total", {}).value(), 1u);
  EXPECT_GE(registry.counter("fcm_em_iterations_total", {}).value(), 1u);
}

}  // namespace
}  // namespace fcm
