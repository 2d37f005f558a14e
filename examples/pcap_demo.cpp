// Real-traffic quickstart: pcap file -> heavy-flow cache -> FCM-sketch.
//
//   ./build/examples/pcap_demo [capture.pcap] [heavy-hitter-threshold-bytes]
//
// Defaults to the committed test fixture (tests/data/fixture.pcap). The demo
// drives the production datapath (DESIGN.md §12): decode a capture (classic
// pcap or pcapng, any byte order, hostile input tolerated with a per-outcome
// ledger), count its bytes through a 1-shard sharded runtime whose driver
// runs the OVS-style cache — hot flows absorbed exactly, cold flows demoted
// into the sketch — then rotate and query the merged epoch: heavy hitters,
// cardinality, entropy, and the cache's own hit/eviction ledger.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "datapath/capture_ingest.h"
#include "flow/flow_key.h"
#include "obs/metrics_registry.h"
#include "runtime/sharded_framework.h"

using namespace fcm;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "tests/data/fixture.pcap";
  const std::uint64_t threshold =
      argc > 2 ? std::stoull(argv[2]) : 2'000;

  datapath::DecodedCapture capture;
  try {
    capture = datapath::load_capture(path);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pcap_demo: cannot decode %s: %s\n", path.c_str(),
                 err.what());
    std::fprintf(stderr,
                 "usage: pcap_demo [capture.pcap] [threshold-bytes]\n");
    return 1;
  }

  std::printf("capture %s\n", path.c_str());
  std::printf("  records %llu, parsed %llu, parse failures %llu\n",
              static_cast<unsigned long long>(capture.stats.capture.records),
              static_cast<unsigned long long>(capture.stats.parsed),
              static_cast<unsigned long long>(capture.stats.parse_failures()));

  obs::MetricsRegistry registry;
  runtime::ShardedFcmFramework::Options options;
  options.framework.fcm = core::FcmConfig::for_memory(150'000, 2, 8, {8, 16, 32});
  options.framework.count_mode = framework::FcmFramework::CountMode::kBytes;
  options.framework.heavy_hitter_threshold = threshold;
  options.framework.em.max_iterations = 5;
  options.shard_count = 1;
  options.cache_entries = 8192;
  options.cache_ways = 4;
  options.metrics = &registry;
  runtime::ShardedFcmFramework sharded(options);
  sharded.ingest(capture.trace.packets());
  const runtime::ShardedFcmFramework::EpochReport report = sharded.rotate();
  const framework::FcmFramework merged = sharded.merged_epoch();

  // The rotation published the cache series; stop() would republish the
  // resident gauge after its own (empty) drain, so read them first.
  const auto series = [&registry](const char* name) {
    return registry.counter(name, {}).value();
  };
  const std::uint64_t hits = series("fcm_datapath_cache_hits_total");
  const std::uint64_t offers = hits + series("fcm_datapath_cache_misses_total");
  std::printf("cache: %.0f resident flows at rotation, %.1f%% hit rate, "
              "%llu evictions\n",
              registry.gauge("fcm_datapath_cache_resident_flows", {}).value(),
              offers ? 100.0 * static_cast<double>(hits) /
                           static_cast<double>(offers)
                     : 0.0,
              static_cast<unsigned long long>(
                  series("fcm_datapath_cache_evictions_total")));
  sharded.stop();
  std::printf("epoch %zu: %llu bytes\n", report.index,
              static_cast<unsigned long long>(report.bytes));

  std::vector<std::pair<std::uint64_t, flow::FlowKey>> top;
  for (const flow::FlowKey key : report.heavy_hitters) {
    top.emplace_back(merged.flow_size(key), key);
  }
  std::sort(top.rbegin(), top.rend());
  std::printf("heavy hitters (threshold %llu bytes): %zu\n",
              static_cast<unsigned long long>(threshold), top.size());
  const std::size_t shown = std::min<std::size_t>(top.size(), 10);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("  %-18s %llu bytes\n", to_string(top[i].second).c_str(),
                static_cast<unsigned long long>(top[i].first));
  }

  // The merged epoch is a plain serial-equivalent FcmFramework: run the full
  // control plane (EM -> FSD, entropy, cardinality) on it.
  const framework::FcmFramework::Report analysis = merged.analyze();
  std::printf("cardinality %.0f, entropy %.3f\n", analysis.cardinality,
              analysis.entropy);
  return 0;
}
