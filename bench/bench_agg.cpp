// Latency study for the network-wide aggregation service (DESIGN.md §11).
//
// Measures, over many epochs of N simulated vantage points:
//   - deliver latency: one snapshot's full service-side cost (header
//     validation, deserialize, merge into the pending epoch, and — for the
//     completing snapshot — view derivation + publish), sampled per call;
//   - query latency: a reader pinning the current view and answering a
//     burst of flow-size lookups, sampled concurrently with ingest, which
//     is exactly the contention the snapshot-isolated plane promises to
//     avoid.
//
// p50/p99 of both go to BENCH_agg.json (schema fcm.bench.agg.v1) together
// with the serialized snapshot size. Absolute latencies are machine-bound;
// the snapshot byte count is deterministic for a given seed and
// configuration, so tools/check_perf_baseline.py pins it exactly (a drift
// means the wire format or the bench configuration changed — re-record the
// baseline deliberately) and treats the latency columns as a soft guard.
//
// Flags: --seed=N     trace seed (default 1)
//        --json=PATH  output path (default BENCH_agg.json in the CWD)
//        --metrics-json=PATH  export a fcm.metrics.v1 snapshot on exit
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "agg/agg_service.h"
#include "agg/wire.h"
#include "bench_common.h"
#include "flow/synthetic.h"
#include "framework/fcm_framework.h"

#ifndef FCM_GIT_REV
#define FCM_GIT_REV "unknown"
#endif

namespace {

using namespace fcm;

constexpr std::size_t kMemory = 600'000;  // paper-scale sketch (§8 setup)
constexpr std::size_t kVantages = 4;
constexpr std::uint64_t kEpochs = 32;
constexpr std::size_t kPacketsPerVantageEpoch = 1 << 15;
constexpr std::size_t kQueryBurst = 16;  // lookups per query sample

using clock_type = std::chrono::steady_clock;

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

framework::FcmFramework::Options reference_options(std::uint64_t seed) {
  framework::FcmFramework::Options options;
  options.fcm = core::FcmConfig::for_memory(kMemory, 2, 8, {8, 16, 32}, seed);
  options.heavy_hitter_threshold = 1'000;
  options.metrics = nullptr;  // timing runs uninstrumented
  return options;
}

struct LatencyStats {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t samples = 0;

  static LatencyStats of(const std::vector<double>& seconds) {
    LatencyStats stats;
    stats.p50 = percentile(seconds, 0.50);
    stats.p99 = percentile(seconds, 0.99);
    stats.samples = seconds.size();
    return stats;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchCli cli = bench::BenchCli::parse(argc, argv);
  std::string json_path = "BENCH_agg.json";
  for (std::size_t i = 1; i < cli.forwarded.size(); ++i) {
    const std::string arg = cli.forwarded[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: bench_agg [--seed=N] [--json=PATH] "
                   "[--metrics-json=PATH]\n",
                   arg.c_str());
      return 2;
    }
  }

  agg::AggregationService::Options service_options;
  service_options.reference = reference_options(cli.seed);
  service_options.vantage_count = kVantages;
  service_options.metrics = nullptr;
  agg::AggregationService service(std::move(service_options));
  const framework::FcmFramework::Options vantage_options =
      service.vantage_options();

  // Per-vantage per-epoch traffic, generated and serialized OUTSIDE the
  // timed region: the service-side cost is what this bench isolates.
  flow::SyntheticTraceConfig trace_config;
  trace_config.packet_count = kPacketsPerVantageEpoch * kVantages * 2;
  trace_config.flow_count = 1 << 17;
  trace_config.seed = cli.seed;
  const flow::Trace trace =
      flow::SyntheticTraceGenerator(trace_config).generate();

  std::vector<flow::FlowKey> query_keys;
  for (std::size_t i = 0; i < kQueryBurst; ++i) {
    query_keys.push_back(trace.packets()[i * 97].key);
  }

  std::atomic<bool> stop{false};
  std::vector<double> query_seconds;
  std::thread reader([&service, &query_keys, &stop, &query_seconds] {
    std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto start = clock_type::now();
      const auto view = service.query_plane().current();
      if (view != nullptr) {
        for (const flow::FlowKey key : query_keys) {
          sink += view->network.flow_size(key);
        }
        query_seconds.push_back(
            std::chrono::duration<double>(clock_type::now() - start).count());
      }
    }
    // Keep the lookups observable.
    if (sink == 0xdeadbeef) std::printf("unlikely\n");
  });

  std::vector<double> deliver_seconds;
  std::size_t snapshot_bytes = 0;
  std::size_t packet_cursor = 0;
  for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    // Build this epoch's N snapshots (untimed)...
    std::vector<agg::SnapshotEnvelope> envelopes;
    for (std::uint32_t v = 0; v < kVantages; ++v) {
      framework::FcmFramework fw(vantage_options);
      for (std::size_t i = 0; i < kPacketsPerVantageEpoch; ++i) {
        fw.process(trace.packets()[packet_cursor].key);
        packet_cursor = (packet_cursor + 1) % trace.size();
      }
      agg::SnapshotEnvelope envelope;
      envelope.vantage_id = v;
      envelope.epoch = epoch;
      envelope.payload = agg::WireCodec::serialize(fw);
      if (snapshot_bytes == 0) snapshot_bytes = envelope.payload.size();
      envelopes.push_back(std::move(envelope));
    }
    // ...then time each delivery (the last one also derives + publishes the
    // network view, so the tail of this distribution IS the publish cost).
    for (auto& envelope : envelopes) {
      const auto start = clock_type::now();
      const agg::DeliveryStatus status = service.deliver(std::move(envelope));
      deliver_seconds.push_back(
          std::chrono::duration<double>(clock_type::now() - start).count());
      if (status != agg::DeliveryStatus::kAccepted) {
        std::fprintf(stderr, "bench_agg: unexpected delivery status %s\n",
                     agg::to_string(status));
        return 1;
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const LatencyStats deliver = LatencyStats::of(deliver_seconds);
  const LatencyStats query = LatencyStats::of(query_seconds);

  std::printf("aggregation service latency (%zu vantages, %llu epochs, "
              "%zu-byte snapshots)\n",
              kVantages, static_cast<unsigned long long>(kEpochs),
              snapshot_bytes);
  std::printf("%-28s %12s %12s %10s\n", "path", "p50 us", "p99 us", "samples");
  std::printf("%-28s %12.1f %12.1f %10zu\n", "deliver (deser+merge+pub)",
              deliver.p50 * 1e6, deliver.p99 * 1e6, deliver.samples);
  std::printf("%-28s %12.1f %12.1f %10zu\n", "query (pin + 16 lookups)",
              query.p50 * 1e6, query.p99 * 1e6, query.samples);

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "bench_agg: cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"aggregation_service_latency\",\n";
  out << "  \"schema\": \"fcm.bench.agg.v1\",\n";
  out << "  \"seed\": " << cli.seed << ",\n";
  out << "  \"vantage_count\": " << kVantages << ",\n";
  out << "  \"epochs\": " << kEpochs << ",\n";
  out << "  \"packets_per_vantage_epoch\": " << kPacketsPerVantageEpoch
      << ",\n";
  out << "  \"snapshot_bytes\": " << snapshot_bytes << ",\n";
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"git_rev\": \"" << FCM_GIT_REV << "\",\n";
  out << "  \"deliver\": {\"p50_seconds\": " << deliver.p50
      << ", \"p99_seconds\": " << deliver.p99
      << ", \"samples\": " << deliver.samples << "},\n";
  out << "  \"query\": {\"p50_seconds\": " << query.p50
      << ", \"p99_seconds\": " << query.p99
      << ", \"samples\": " << query.samples << "}\n";
  out << "}\n";
  std::printf("wrote %s\n", json_path.c_str());

  cli.finish();
  return 0;
}
