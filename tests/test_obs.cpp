// Unit and concurrency tests for the observability layer (DESIGN.md §8).
//
// The concurrency suites are the acceptance gate for scrape-while-ingest:
// CI's FCM_SANITIZE=thread job runs this binary, so snapshot() racing hot
// relaxed-atomic writers — plain writer threads, and a live runtime's driver
// and epoch coordinator — is exercised under TSan.
#include "obs/metrics_registry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "flow/synthetic.h"
#include "obs/metrics_logger.h"
#include "runtime/sharded_framework.h"

namespace fcm::obs {
namespace {

// --- Counter -----------------------------------------------------------------

TEST(Counter, IncAddsToOneValue) {
  static_assert(sizeof(Counter) <= kObsCacheLineBytes,
                "a counter is one atomic, not a stripe array");
  MetricsRegistry registry;
  Counter& counter = registry.counter("events_total");
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
}

// --- Gauge -------------------------------------------------------------------

TEST(Gauge, SetValue) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("depth");
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(2.5);
  EXPECT_EQ(gauge.value(), 2.5);
  gauge.set(-1.0);
  EXPECT_EQ(gauge.value(), -1.0);
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, BucketsObservationsAtUpperEdges) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat", {1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (upper edge inclusive)
  h.observe(7.0);    // <= 10
  h.observe(1000.0); // +Inf
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 7.0 + 1000.0);
}

TEST(Histogram, ExponentialBoundsLadder) {
  const std::vector<double> bounds = Histogram::exponential_bounds(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
  EXPECT_THROW(Histogram::exponential_bounds(0.0, 2.0, 4), std::logic_error);
  EXPECT_THROW(Histogram::exponential_bounds(1.0, 1.0, 4), std::logic_error);
  EXPECT_THROW(Histogram::exponential_bounds(1.0, 2.0, 0), std::logic_error);
}

TEST(Histogram, RejectsNonAscendingBounds) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("bad", {1.0, 1.0}), std::logic_error);
  EXPECT_THROW(registry.histogram("bad2", {2.0, 1.0}), std::logic_error);
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, GetOrCreateReturnsStableSeries) {
  MetricsRegistry registry;
  Counter& a = registry.counter("hits_total", {{"shard", "0"}});
  Counter& b = registry.counter("hits_total", {{"shard", "0"}});
  Counter& c = registry.counter("hits_total", {{"shard", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(registry.snapshot().samples.size(), 2u);
}

TEST(Registry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_THROW(registry.histogram("x", {1.0}), std::logic_error);
}

TEST(Registry, SnapshotRendersJson) {
  MetricsRegistry registry;
  registry.counter("req_total", {{"code", "200"}}, "requests").inc(3);
  registry.histogram("lat_seconds", {0.1, 1.0}, {}, "latency").observe(0.05);
  const MetricsSnapshot snap = registry.snapshot();

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"schema\": \"fcm.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"req_total\""), std::string::npos);
  EXPECT_NE(json.find("\"code\": \"200\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 3"), std::string::npos);
  // Histogram buckets are cumulative; the last one's edge is "+Inf".
  EXPECT_NE(json.find("{\"le\": \"0.1\", \"count\": 1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": \"+Inf\", \"count\": 1}"), std::string::npos);
}

TEST(Registry, NonFiniteValuesRenderVisibly) {
  // A gauge set to a non-finite value must stay distinguishable from a
  // legitimate zero in scraped data: JSON has no NaN/Inf, so null.
  MetricsRegistry registry;
  registry.gauge("nan_gauge").set(std::numeric_limits<double>::quiet_NaN());
  registry.gauge("inf_gauge").set(std::numeric_limits<double>::infinity());
  registry.gauge("ninf_gauge").set(-std::numeric_limits<double>::infinity());
  const MetricsSnapshot snap = registry.snapshot();
  const std::string json = snap.to_json();
  std::size_t nulls = 0;
  for (std::size_t at = json.find("\"value\": null"); at != std::string::npos;
       at = json.find("\"value\": null", at + 1)) {
    ++nulls;
  }
  EXPECT_EQ(nulls, 3u);
  EXPECT_EQ(json.find("1e308"), std::string::npos);
  EXPECT_EQ(json.find("\"value\": 0"), std::string::npos);
}

TEST(Registry, ScopedTimerObservesOnceAndToleratesNull) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("t_seconds", Histogram::latency_bounds());
  {
    const ScopedTimer timer(&h);
  }
  EXPECT_EQ(h.count(), 1u);
  {
    const ScopedTimer timer(nullptr);  // must be a no-op
  }
  EXPECT_EQ(h.count(), 1u);
}

// --- MetricsLogger -----------------------------------------------------------

TEST(MetricsLogger, WritesJsonLinesAndStopsPromptly) {
  const std::string path = ::testing::TempDir() + "obs_logger.jsonl";
  std::remove(path.c_str());
  MetricsRegistry registry;
  registry.counter("ticks_total").inc(5);
  {
    MetricsLogger::Options options;
    options.path = path;
    options.interval = std::chrono::milliseconds(5);
    MetricsLogger logger(registry, options);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    logger.stop();
    logger.stop();  // idempotent
    EXPECT_GE(logger.snapshots_written(), 1u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_NE(line.find("fcm.metrics.v1"), std::string::npos);
    EXPECT_NE(line.find("ticks_total"), std::string::npos);
  }
  EXPECT_GE(lines, 1u);
  std::remove(path.c_str());
}

// --- scrape-while-ingest (the TSan gate) -------------------------------------

TEST(Concurrency, SnapshotWhileWritersAreHot) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hot_total");
  Gauge& gauge = registry.gauge("hot_gauge");
  Histogram& histogram = registry.histogram("hot_seconds", {1e-3, 1e-2, 1e-1});

  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20'000;
  std::vector<std::jthread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        counter.inc();
        gauge.set(static_cast<double>(i));
        histogram.observe(static_cast<double>(i % 100) * 1e-3);
      }
    });
  }
  // Scrape continuously while the writers hammer the series.
  std::uint64_t last_counter = 0;
  for (int s = 0; s < 200; ++s) {
    const MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.samples.size(), 3u);
    for (const auto& sample : snap.samples) {
      if (sample.name == "hot_total") {
        const auto value = static_cast<std::uint64_t>(sample.value);
        EXPECT_GE(value, last_counter) << "counter went backwards";
        last_counter = value;
      }
    }
  }
  writers.clear();  // join
  EXPECT_EQ(counter.value(), kWriters * kPerWriter);
  EXPECT_EQ(histogram.count(), kWriters * kPerWriter);
}

TEST(Concurrency, ShardedIngestScrapedConcurrently) {
  // The end-to-end gate: a sharded runtime instrumented against a local
  // registry, scraped from another thread mid-ingest.
  MetricsRegistry registry;

  flow::SyntheticTraceConfig config;
  config.packet_count = 1 << 16;
  config.flow_count = 4'000;
  config.seed = 99;
  const flow::Trace trace = flow::SyntheticTraceGenerator(config).generate();

  runtime::ShardedFcmFramework::Options options;
  options.framework.fcm = core::FcmConfig::for_memory(64 * 1024, 2, 8, {8, 16, 32});
  options.shard_count = 2;
  options.metrics = &registry;
  runtime::ShardedFcmFramework sharded(options);

  std::jthread scraper([&](const std::stop_token& token) {
    while (!token.stop_requested()) {
      const MetricsSnapshot snap = registry.snapshot();
      EXPECT_GE(snap.samples.size(), 5u);
    }
  });

  for (const flow::Packet& packet : trace.packets()) {
    sharded.ingest(packet.key);
  }
  const auto report = sharded.rotate();
  scraper.request_stop();
  scraper = {};  // join

  EXPECT_EQ(report.packets, trace.size());
  // Every packet must be attributed to exactly one shard counter.
  std::uint64_t shard_packets = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    shard_packets +=
        registry
            .counter("fcm_runtime_shard_packets_total",
                     {{"shard", std::to_string(s)}})
            .value();
  }
  EXPECT_EQ(shard_packets, trace.size());
  EXPECT_GE(registry.counter("fcm_runtime_epochs_merged_total").value(), 1u);
  EXPECT_GE(registry
                .histogram("fcm_runtime_merge_seconds",
                           Histogram::latency_bounds())
                .count(),
            1u);
}

TEST(Concurrency, RegistrationRacesSnapshotSafely) {
  // Regression: registration (including construction of the value object)
  // must be one critical section — a scrape racing the FIRST registration
  // of a series used to dereference a not-yet-constructed Counter.
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  std::vector<std::jthread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        registry.counter("race_total", {{"i", std::to_string(i % 8)}}).inc();
        registry
            .histogram("race_seconds", {1.0}, {{"i", std::to_string(i % 8)}})
            .observe(0.5);
      }
    });
  }
  for (int s = 0; s < 200; ++s) {
    const MetricsSnapshot snap = registry.snapshot();
    for (const auto& sample : snap.samples) {
      EXPECT_FALSE(sample.name.empty());
    }
  }
  writers.clear();  // join
  std::uint64_t total = 0;
  for (int i = 0; i < 8; ++i) {
    total += registry.counter("race_total", {{"i", std::to_string(i)}}).value();
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kRounds);
}

TEST(Registry, ConfiguredRegistryThreadedThroughAnalyze) {
  // FcmFramework::Options::metrics is the single knob: analyze() and the EM
  // estimator it spawns must write to the configured registry, not the
  // global singleton.
  MetricsRegistry local;
  framework::FcmFramework::Options options;
  options.fcm = core::FcmConfig::for_memory(32 * 1024, 2, 8, {8, 16, 32});
  options.em.max_iterations = 2;
  options.metrics = &local;
  framework::FcmFramework fw(options);
  for (std::uint32_t i = 0; i < 2'000; ++i) fw.process(flow::FlowKey{i % 50});
  (void)fw.analyze();
  EXPECT_GE(local.counter("fcm_framework_analyze_total").value(), 1u);
  EXPECT_GE(local.counter("fcm_em_runs_total").value(), 1u);
  EXPECT_GE(local.counter("fcm_em_iterations_total").value(), 2u);
}

TEST(Registry, NullMetricsIsFullyUninstrumented) {
  // Regression: metrics == nullptr must not fall back to the global
  // registry anywhere in the pipeline — including an EM run on the sharded
  // runtime's merged epoch (the overhead baseline depends on it).
  const auto global_series = [] {
    return MetricsRegistry::global().snapshot().samples.size();
  };
  const std::size_t global_before = global_series();

  framework::FcmFramework::Options fw_options;
  fw_options.fcm = core::FcmConfig::for_memory(32 * 1024, 2, 8, {8, 16, 32});
  fw_options.em.max_iterations = 2;
  fw_options.metrics = nullptr;
  framework::FcmFramework fw(fw_options);
  for (std::uint32_t i = 0; i < 2'000; ++i) fw.process(flow::FlowKey{i % 50});
  (void)fw.analyze();
  EXPECT_EQ(global_series(), global_before);

  runtime::ShardedFcmFramework::Options options;
  options.framework = fw_options;
  // Options::metrics alone must silence the merged epochs: the framework
  // options still name the global registry.
  options.framework.metrics = &MetricsRegistry::global();
  options.shard_count = 2;
  options.metrics = nullptr;
  runtime::ShardedFcmFramework sharded(options);
  EXPECT_EQ(global_series(), global_before);
  for (std::uint32_t i = 0; i < 2'000; ++i) sharded.ingest(flow::FlowKey{i % 50});
  sharded.rotate();
  EXPECT_GT(sharded.merged_epoch().analyze().estimated_flows, 0.0);
  EXPECT_EQ(global_series(), global_before);
}

TEST(Concurrency, SequentialInstrumentedInstancesReuseQueueGauges) {
  // Non-overlapping instances on one registry share the queue gauges: each
  // instance's coordinator overwrites them at its merges.
  MetricsRegistry registry;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    runtime::ShardedFcmFramework::Options options;
    options.framework.fcm =
        core::FcmConfig::for_memory(32 * 1024, 2, 8, {8, 16, 32});
    options.shard_count = 2;
    options.metrics = &registry;
    runtime::ShardedFcmFramework sharded(options);
    std::vector<Gauge*> gauges;
    for (const char* name :
         {"fcm_runtime_queue_depth", "fcm_runtime_queue_high_water_blocks"}) {
      for (const char* shard : {"0", "1"}) {
        gauges.push_back(&registry.gauge(name, {{"shard", shard}}));
        gauges.back()->set(-1.0);  // stale value this round must replace
      }
    }
    sharded.ingest(flow::FlowKey{7});
    sharded.rotate();
    for (const Gauge* gauge : gauges) EXPECT_GE(gauge->value(), 0.0);
    // Shard 0 received the one staged block, so its high water is at least
    // one block.
    EXPECT_GE(gauges[2]->value(), 1.0);
  }
}

// Every series DESIGN.md §8 lists, with its kind and whether it carries a
// shard label. A runtime with the cache on, one rotation and one analyze()
// of the merged epoch writes all of them, and nothing else.
TEST(Registry, RuntimeExportsEverySeriesTheDesignLists) {
  struct Documented {
    const char* name;
    MetricKind kind;
    bool per_shard;
  };
  const std::vector<Documented> documented = {
      {"fcm_sketch_overflow_promotions_total", MetricKind::kCounter, false},
      {"fcm_sketch_cardinality_saturations_total", MetricKind::kCounter, false},
      {"fcm_framework_analyze_total", MetricKind::kCounter, false},
      {"fcm_framework_analyze_seconds", MetricKind::kHistogram, false},
      {"fcm_em_runs_total", MetricKind::kCounter, false},
      {"fcm_em_iterations_total", MetricKind::kCounter, false},
      {"fcm_em_iteration_seconds", MetricKind::kHistogram, false},
      {"fcm_em_convergence_delta", MetricKind::kGauge, false},
      {"fcm_datapath_cache_hits_total", MetricKind::kCounter, false},
      {"fcm_datapath_cache_misses_total", MetricKind::kCounter, false},
      {"fcm_datapath_cache_evictions_total", MetricKind::kCounter, false},
      {"fcm_datapath_cache_resident_flows", MetricKind::kGauge, false},
      {"fcm_runtime_blocks_published_total", MetricKind::kCounter, false},
      {"fcm_runtime_partial_flushes_total", MetricKind::kCounter, false},
      {"fcm_runtime_backpressure_spins_total", MetricKind::kCounter, false},
      {"fcm_runtime_rotations_total", MetricKind::kCounter, false},
      {"fcm_runtime_rotation_wait_seconds", MetricKind::kHistogram, false},
      {"fcm_runtime_merge_seconds", MetricKind::kHistogram, false},
      {"fcm_runtime_epochs_merged_total", MetricKind::kCounter, false},
      {"fcm_runtime_epoch_packets", MetricKind::kGauge, false},
      {"fcm_runtime_fanout_imbalance", MetricKind::kGauge, false},
      {"fcm_runtime_shard_packets_total", MetricKind::kCounter, true},
      {"fcm_runtime_shard_bytes_total", MetricKind::kCounter, true},
      {"fcm_runtime_queue_depth", MetricKind::kGauge, true},
      {"fcm_runtime_queue_high_water_blocks", MetricKind::kGauge, true},
  };
  constexpr std::size_t kShards = 2;

  MetricsRegistry registry;
  runtime::ShardedFcmFramework::Options options;
  options.framework.fcm = core::FcmConfig::for_memory(32 * 1024, 2, 8, {8, 16, 32});
  options.framework.count_mode =
      framework::FcmFramework::CountMode::kBytes;
  options.framework.em.max_iterations = 2;
  options.shard_count = kShards;
  options.cache_entries = 64;
  options.metrics = &registry;
  runtime::ShardedFcmFramework sharded(options);
  for (std::uint32_t i = 0; i < 2'000; ++i) {
    sharded.ingest(flow::Packet{flow::FlowKey{1 + i % 50}, 100, i});
  }
  sharded.rotate();
  (void)sharded.merged_epoch().analyze();

  // Series identity: the name, then each label as |key=value.
  const auto series_id = [](const std::string& name,
                            const std::vector<MetricLabel>& labels) {
    std::string id = name;
    for (const MetricLabel& label : labels) {
      id += "|" + label.key + "=" + label.value;
    }
    return id;
  };
  const MetricsSnapshot snap = registry.snapshot();
  std::map<std::string, MetricKind> exported;
  for (const MetricsSnapshot::Sample& sample : snap.samples) {
    exported[series_id(sample.name, sample.labels)] = sample.kind;
  }
  std::size_t expected_series = 0;
  for (const Documented& series : documented) {
    const std::size_t copies = series.per_shard ? kShards : 1;
    expected_series += copies;
    for (std::size_t s = 0; s < copies; ++s) {
      const std::string id =
          series.per_shard
              ? series_id(series.name, {{"shard", std::to_string(s)}})
              : std::string(series.name);
      ASSERT_TRUE(exported.contains(id)) << id;
      EXPECT_EQ(exported.at(id), series.kind) << id;
    }
  }
  EXPECT_EQ(exported.size(), expected_series)
      << "a series the design does not list";
}

}  // namespace
}  // namespace fcm::obs
