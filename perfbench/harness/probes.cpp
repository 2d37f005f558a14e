#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

#include "agg/agg_service.h"
#include "agg/wire.h"
#include "common/hash.h"
#include "controlplane/em.h"
#include "controlplane/virtual_counter.h"
#include "datapath/capture_ingest.h"
#include "datapath/heavy_flow_cache.h"
#include "pcap_writer.h"

namespace perfbench {

namespace {

// Probes that build whole pipelines run on at most this many packets.
constexpr std::size_t kProbePackets = std::size_t{1} << 18;
// Repeat a timed call until this much time has passed (and at least
// kMinRepeats times); report the median repeat.
constexpr double kMinProbeSeconds = 0.2;
constexpr int kMinRepeats = 3;
constexpr std::uint64_t kProbeThreshold = 1'000;

// Keeps probe results observable so the timed work is not optimised away.
std::uint64_t g_sink = 0;

template <typename Fn>
double median_seconds(Fn&& fn) {
  std::vector<double> seconds;
  const double start = now_s();
  while (seconds.size() < kMinRepeats || now_s() - start < kMinProbeSeconds) {
    const double t0 = now_s();
    fn();
    seconds.push_back(now_s() - t0);
  }
  return percentile(seconds, 0.5);
}

bool wants(const Result& result, std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (!result.has(name)) return true;
  }
  return false;
}

void set_missing(Result& result, const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  if (!result.has(name)) result.set(name, value, unit, samples, "probe");
}

std::vector<flow::FlowKey> keys_of(std::span<const flow::Packet> packets) {
  std::vector<flow::FlowKey> keys;
  keys.reserve(packets.size());
  for (const flow::Packet& packet : packets) keys.push_back(packet.key);
  return keys;
}

void probe_index(std::span<const flow::FlowKey> keys, Result& result) {
  const core::FcmConfig config = sketch_options(nullptr).fcm;
  const fcm::common::SeededHash hash(static_cast<std::uint32_t>(config.seed));
  std::uint32_t idx[fcm::common::kBatchBlock];
  const double seconds = median_seconds([&] {
    for (std::size_t i = 0; i < keys.size(); i += fcm::common::kBatchBlock) {
      const std::size_t n = std::min(fcm::common::kBatchBlock, keys.size() - i);
      hash.index_batch(keys.subspan(i, n), config.leaf_count,
                       std::span<std::uint32_t>(idx, n));
      g_sink += idx[0];
    }
  });
  set_missing(result, "common.index_ns_per_key",
              seconds * 1e9 / static_cast<double>(keys.size()), "ns", keys.size());
}

void probe_apply(std::span<const flow::FlowKey> keys, Result& result) {
  framework::FcmFramework fw(sketch_options(nullptr));
  const double seconds = median_seconds([&] {
    fw.reset();
    fw.process_batch(keys);
  });
  g_sink += fw.flow_size(keys.front());
  set_missing(result, "fcm.apply_ns_per_pkt",
              seconds * 1e9 / static_cast<double>(keys.size()), "ns", keys.size());
}

void probe_bytes_apply(std::span<const flow::Packet> packets, Result& result) {
  framework::FcmFramework::Options options = sketch_options(nullptr);
  options.count_mode = framework::FcmFramework::CountMode::kBytes;
  framework::FcmFramework fw(options);
  const double seconds = median_seconds([&] {
    fw.reset();
    fw.process(packets);
  });
  g_sink += fw.flow_size(packets.front().key);
  set_missing(result, "fcm.bytes_apply_ns_per_pkt",
              seconds * 1e9 / static_cast<double>(packets.size()), "ns",
              packets.size());
}

void probe_datapath(std::span<const flow::Packet> packets, const std::string& workdir,
                    Result& result) {
  const std::string path = workdir + "/probe.pcap";
  write_capture(path, packets);

  datapath::DecodeStats stats;
  const double load_seconds = median_seconds([&] {
    const datapath::DecodedCapture decoded = datapath::load_capture(path);
    stats = decoded.stats;
    g_sink += decoded.trace.size();
  });

  std::ifstream file(path, std::ios::binary);
  const std::vector<char> raw((std::istreambuf_iterator<char>(file)),
                              std::istreambuf_iterator<char>());
  const auto bytes = std::as_bytes(std::span<const char>(raw));
  std::vector<datapath::RawRecord> records;
  records.reserve(packets.size());
  const double read_seconds = median_seconds([&] {
    records.clear();
    datapath::PcapReader reader(bytes);
    datapath::RawRecord record;
    while (reader.next(record) == datapath::RecordOutcome::kRecord) {
      records.push_back(record);
    }
  });
  const double parse_seconds = median_seconds([&] {
    datapath::ParsedPacket parsed;
    for (const datapath::RawRecord& record : records) {
      if (datapath::parse_packet(record, parsed) == datapath::ParseOutcome::kOk) {
        g_sink += parsed.tuple.src_ip;
      }
    }
  });
  std::remove(path.c_str());

  datapath::HeavyFlowCache cache(datapath::HeavyFlowCache::Options{8192, 4, 0xcac4e});
  for (const flow::Packet& packet : packets) cache.offer(packet.key, packet.bytes);
  const double offers = static_cast<double>(cache.hits() + cache.misses());

  const double n = static_cast<double>(std::max<std::size_t>(records.size(), 1));
  set_missing(result, "datapath.load_capture_s", load_seconds, "s", 1);
  set_missing(result, "datapath.read_ns_per_record", read_seconds * 1e9 / n, "ns",
              records.size());
  set_missing(result, "datapath.parse_ns_per_packet", parse_seconds * 1e9 / n, "ns",
              records.size());
  set_missing(result, "datapath.parse_failures",
              static_cast<double>(stats.parse_failures()), "count", records.size());
  set_missing(result, "datapath.cache_hit_ratio",
              offers > 0 ? static_cast<double>(cache.hits()) / offers : 0.0, "ratio",
              static_cast<std::size_t>(offers));
}

void probe_runtime(std::span<const flow::FlowKey> keys, Result& result) {
  constexpr std::size_t kEpochs = 4;
  constexpr std::size_t kPasses = 4;
  obs::MetricsRegistry registry;
  runtime::ShardedFcmFramework::Options options;
  options.framework = sketch_options(&registry);
  options.shard_count = 2;
  options.metrics = &registry;
  options.retained_epochs = 16;
  runtime::ShardedFcmFramework rt(options);
  const std::size_t per_epoch = keys.size() / kEpochs;
  Tracer tracer("probe");
  const RuntimePhase phase = drive_epochs(
      rt,
      [&](std::size_t epoch) {
        const ScopedSpan span(&tracer, "runtime.ingest", epoch);
        rt.ingest(keys.subspan((epoch % kEpochs) * per_epoch, per_epoch));
      },
      [&](std::size_t next, double) { return next < kEpochs * kPasses; }, &tracer);
  report_runtime_layers(phase, tracer, per_epoch * kEpochs * kPasses, result, "probe");
}

void probe_controlplane(std::span<const flow::FlowKey> keys,
                        std::span<const flow::FlowKey> previous, Result& result) {
  framework::FcmFramework::Options options = sketch_options(nullptr);
  options.heavy_hitter_threshold = kProbeThreshold;
  framework::FcmFramework current(options);
  framework::FcmFramework before(options);
  current.process_batch(keys);
  before.process_batch(previous);

  const double convert_seconds = median_seconds(
      [&] { g_sink += control::convert_sketch(current.sketch()).size(); });
  std::vector<double> iterations;
  control::EmConfig em;
  em.metrics = nullptr;
  control::EmFsdEstimator estimator(control::convert_sketch(current.sketch()), em);
  estimator.run([&](std::size_t, double seconds, const control::FlowSizeDistribution&) {
    iterations.push_back(seconds);
  });
  const double change_seconds = median_seconds([&] {
    g_sink += framework::FcmFramework::heavy_changes(before, current, kProbeThreshold).size();
  });
  const double t0 = now_s();
  const framework::FcmFramework::Report report = current.analyze();
  const double analyze_seconds = now_s() - t0;
  g_sink += static_cast<std::uint64_t>(report.estimated_flows);

  set_missing(result, "controlplane.convert_ms", convert_seconds * 1e3, "ms", 1);
  set_missing(result, "controlplane.em_iter_ms", percentile(iterations, 0.5) * 1e3,
              "ms", iterations.size());
  set_missing(result, "controlplane.heavy_change_ms", change_seconds * 1e3, "ms", 1);
  set_missing(result, "framework.analyze_ms", analyze_seconds * 1e3, "ms", 1);
}

void probe_agg(std::span<const flow::FlowKey> keys, Result& result) {
  constexpr std::size_t kVantages = 2;
  constexpr std::uint64_t kEpochs = 5;
  agg::AggregationService::Options service_options;
  service_options.reference = sketch_options(nullptr);
  service_options.vantage_count = kVantages;
  service_options.metrics = nullptr;
  agg::AggregationService service(service_options);
  framework::FcmFramework vantage(service.vantage_options());
  vantage.process_batch(keys);

  std::vector<std::byte> payload;
  const double serialize_seconds =
      median_seconds([&] { payload = agg::WireCodec::serialize(vantage); });
  std::vector<double> deliver_seconds;
  std::uint64_t rejected = 0;
  for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    for (std::uint32_t v = 0; v < kVantages; ++v) {
      agg::SnapshotEnvelope envelope{v, epoch, payload};
      const double t0 = now_s();
      const agg::DeliveryStatus status = service.deliver(std::move(envelope));
      if (v + 1 < kVantages) deliver_seconds.push_back(now_s() - t0);
      if (status != agg::DeliveryStatus::kAccepted) ++rejected;
    }
  }
  result.record("probe deliveries accepted", kEpochs * kVantages, rejected);
  set_missing(result, "agg.serialize_ms", serialize_seconds * 1e3, "ms", 1);
  set_missing(result, "agg.deliver_ms", percentile(deliver_seconds, 0.5) * 1e3, "ms",
              deliver_seconds.size());
  set_missing(result, "agg.snapshot_bytes", static_cast<double>(payload.size()),
              "bytes", 1);
}

}  // namespace

void report_runtime_layers(const RuntimePhase& phase, const Tracer& tracer,
                           std::uint64_t packets, Result& result,
                           const std::string& source) {
  std::vector<double> merge_ms;
  std::vector<double> imbalance;
  std::uint64_t promotions = 0;
  for (const auto& report : phase.reports) {
    merge_ms.push_back(report.merge_seconds * 1e3);
    imbalance.push_back(report.fanout_imbalance);
    promotions += report.overflow_promotions;
  }
  std::vector<double> rotate_ms = tracer.durations("runtime.rotate_async");
  for (double& d : rotate_ms) d *= 1e3;
  const double pkts = static_cast<double>(std::max<std::uint64_t>(packets, 1));
  result.set("runtime.ingest_ns_per_pkt", tracer.total("runtime.ingest") * 1e9 / pkts,
             "ns", packets, source);
  result.set("runtime.rotate_call_ms", percentile(rotate_ms, 0.5), "ms",
             rotate_ms.size(), source);
  result.set("runtime.merge_ms", percentile(merge_ms, 0.5), "ms", merge_ms.size(),
             source);
  result.set("runtime.epoch_result_ms", percentile(phase.epoch_result_s, 0.5) * 1e3, "ms",
             phase.epoch_result_s.size(), source);
  result.set("runtime.fanout_imbalance", percentile(imbalance, 0.5), "ratio",
             imbalance.size(), source);
  result.set("runtime.queue_high_water", phase.queue_high_water, "ratio", 1, source);
  result.set("runtime.promotions_per_kpkt",
             static_cast<double>(promotions) * 1e3 / pkts, "count", phase.reports.size(),
             source);
}

void report_trace_overhead(double untraced_mpps, double traced_mpps, Result& result) {
  const double overhead =
      untraced_mpps > 0 ? (untraced_mpps - traced_mpps) / untraced_mpps * 100.0 : 0.0;
  result.set("bench.trace_overhead_pct", overhead, "%", 2);
}

void probe_missing_layers(const ProbeInput& input, Result& result) {
  const std::vector<flow::FlowKey> keys = keys_of(input.epoch);
  const std::span<const flow::Packet> small =
      input.epoch.first(std::min(input.epoch.size(), kProbePackets));
  const std::span<const flow::Packet> small_previous =
      input.previous.first(std::min(input.previous.size(), kProbePackets));
  const std::vector<flow::FlowKey> small_keys = keys_of(small);

  if (wants(result, {"common.index_ns_per_key"})) probe_index(keys, result);
  if (wants(result, {"fcm.apply_ns_per_pkt"})) probe_apply(keys, result);
  if (wants(result, {"fcm.bytes_apply_ns_per_pkt"})) {
    probe_bytes_apply(input.epoch, result);
  }
  if (wants(result, {"datapath.load_capture_s", "datapath.read_ns_per_record",
                     "datapath.parse_ns_per_packet", "datapath.parse_failures",
                     "datapath.cache_hit_ratio"})) {
    probe_datapath(small, input.workdir, result);
  }
  if (wants(result, {"runtime.ingest_ns_per_pkt", "runtime.rotate_call_ms",
                     "runtime.merge_ms", "runtime.fanout_imbalance",
                     "runtime.queue_high_water", "runtime.promotions_per_kpkt"})) {
    probe_runtime(small_keys, result);
  }
  if (wants(result, {"controlplane.convert_ms", "controlplane.em_iter_ms",
                     "controlplane.heavy_change_ms", "framework.analyze_ms"})) {
    probe_controlplane(small_keys, keys_of(small_previous), result);
  }
  if (wants(result, {"agg.serialize_ms", "agg.deliver_ms", "agg.snapshot_bytes"})) {
    probe_agg(small_keys, result);
  }
  if (g_sink == 0x5eed) std::fprintf(stderr, "perfbench: sink %llu\n",
                                     static_cast<unsigned long long>(g_sink));
}

}  // namespace perfbench
