// capture_bytes: capture read and parse, the heavy-flow cache, pair/weighted
// staging and the carry walk do the work. Byte counts overflow level-1
// counters constantly, and the whole capture is buffered before ingest.
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "datapath/capture_ingest.h"
#include "flow/synthetic.h"
#include "pcap_writer.h"
#include "probes.h"
#include "runtime_phase.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kCapturePackets = std::size_t{1} << 22;
constexpr std::size_t kFlows = std::size_t{1} << 20;
constexpr double kZipfAlpha = 1.3;
constexpr std::size_t kEpochPackets = std::size_t{1} << 18;
constexpr std::size_t kEpochsPerPass = kCapturePackets / kEpochPackets;
constexpr std::size_t kShards = 2;
constexpr std::size_t kCacheEntries = 8192;
constexpr std::size_t kCacheWays = 4;
constexpr std::size_t kRetainedEpochs = 16;

framework::FcmFramework::Options byte_sketch_options(obs::MetricsRegistry* registry) {
  framework::FcmFramework::Options options = sketch_options(registry);
  options.count_mode = framework::FcmFramework::CountMode::kBytes;
  return options;
}

// The registry is declared first so it outlives the runtime that writes it.
struct Pipeline {
  std::unique_ptr<obs::MetricsRegistry> registry = std::make_unique<obs::MetricsRegistry>();
  std::unique_ptr<runtime::ShardedFcmFramework> runtime;

  Pipeline() {
    runtime::ShardedFcmFramework::Options options;
    options.framework = byte_sketch_options(registry.get());
    options.shard_count = kShards;
    options.fanout = runtime::ShardedFcmFramework::Fanout::kHashByKey;
    options.cache_entries = kCacheEntries;
    options.cache_ways = kCacheWays;
    options.retained_epochs = kRetainedEpochs;
    options.metrics = registry.get();
    runtime = std::make_unique<runtime::ShardedFcmFramework>(options);
  }

  double cache_hit_ratio() const {
    double hits = 0.0;
    double misses = 0.0;
    for (const auto& sample : registry->snapshot().samples) {
      if (sample.name == "fcm_datapath_cache_hits_total") hits += sample.value;
      if (sample.name == "fcm_datapath_cache_misses_total") misses += sample.value;
    }
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  }
};

struct PhaseOutcome {
  RuntimePhase phase;
  std::size_t passes = 0;
  std::uint64_t packets = 0;  // decoded and ingested
  std::uint64_t records = 0;
  std::uint64_t decode_failures = 0;  // parse failures plus capture damage
  double mpps = 0.0;
  datapath::DecodedCapture last_pass;
};

PhaseOutcome run_phase(Pipeline& pipeline, const std::string& path, double seconds,
                       Tracer* tracer) {
  runtime::ShardedFcmFramework& rt = *pipeline.runtime;
  const auto feed = [&rt, &path](PhaseOutcome& out, Tracer* spans) {
    return [&rt, &path, &out, spans](std::size_t epoch) {
      datapath::DecodedCapture& capture = out.last_pass;
      const std::size_t in_pass = epoch % kEpochsPerPass;
      if (in_pass == 0) {
        capture = {};  // hold one decoded pass at a time
        const ScopedSpan span(spans, "datapath.load_capture", epoch);
        capture = datapath::load_capture(path);
        const datapath::DecodeStats& stats = capture.stats;
        ++out.passes;
        out.records += stats.capture.records;
        out.decode_failures += stats.parse_failures() + stats.capture.truncated +
                               stats.capture.malformed_skipped +
                               stats.capture.malformed_terminal;
      }
      const auto packets = capture.trace.packets();
      const std::size_t begin = std::min(packets.size(), in_pass * kEpochPackets);
      const auto slice =
          packets.subspan(begin, std::min(kEpochPackets, packets.size() - begin));
      out.packets += slice.size();
      const ScopedSpan span(spans, "runtime.ingest", epoch);
      rt.ingest(slice);
    };
  };
  // Warm-up: one pass, untimed, so the page cache, rings and sketches are warm.
  {
    PhaseOutcome warmup;
    drive_epochs(rt, feed(warmup, nullptr),
                 [](std::size_t next, double) { return next < kEpochsPerPass; }, nullptr);
  }
  PhaseOutcome out;
  out.phase = drive_epochs(
      rt, feed(out, tracer),
      // Whole passes only, so the last epoch is always the capture's last.
      [&](std::size_t next, double elapsed) {
        return next % kEpochsPerPass != 0 || elapsed < seconds;
      },
      tracer, kEpochsPerPass);
  // Every pass decodes the whole capture; a pass is timed from load_capture()
  // to its last rotation.
  out.mpps = rate_mpps(out.phase, kEpochsPerPass,
                       out.passes > 0 ? out.packets / out.passes : 0, 0.5);
  return out;
}

std::span<const flow::Packet> last_epoch_of(const datapath::DecodedCapture& capture) {
  const auto packets = capture.trace.packets();
  return packets.last(std::min(packets.size(), kEpochPackets));
}

void check_phase(const PhaseOutcome& out, Result& result) {
  const RuntimePhase& phase = out.phase;
  result.gate("epoch waiter: " + phase.waiter_error, phase.waiter_error.empty());
  result.gate("every epoch reported", phase.reports.size() == phase.epochs);
  const std::uint64_t written = out.passes * kCapturePackets;
  const std::uint64_t missing = written > out.records ? written - out.records : 0;
  result.record("capture records decoded", std::max(written, out.records),
                out.decode_failures + missing);

  std::uint64_t pass_bytes = 0;
  for (const flow::Packet& packet : out.last_pass.trace.packets()) pass_bytes += packet.bytes;
  std::uint64_t accounted = 0;
  for (const auto& report : phase.reports) accounted += report.bytes;
  result.gate("bytes accounted in epoch reports", accounted == pass_bytes * out.passes);

  framework::FcmFramework serial(byte_sketch_options(nullptr));
  serial.process(last_epoch_of(out.last_pass));
  result.gate("merged epoch counters equal serial FCM",
              !phase.last_epochs.empty() &&
                  same_counter_state(phase.last_epochs.back().sketch(), serial.sketch()));
}

}  // namespace

void run_capture_bytes(const RunOptions& options, Result& result) {
  result.param("capture_packets", static_cast<double>(kCapturePackets));
  result.param("flows", static_cast<double>(kFlows));
  result.param("zipf_alpha", kZipfAlpha);
  result.param("epoch_packets", static_cast<double>(kEpochPackets));
  result.param("shards", static_cast<double>(kShards));
  result.param("fanout", "hash");
  result.param("count_mode", "bytes");
  result.param("cache_entries", static_cast<double>(kCacheEntries));
  result.param("cache_ways", static_cast<double>(kCacheWays));
  result.param("capture", "classic pcap, Ethernet, headers-only caplen, "
                          "IPv4 TCP/UDP with VLAN-tagged and IPv6 minorities");
  result.param("sketch_bytes", static_cast<double>(kSketchBytes));
  result.param("retained_epochs", static_cast<double>(kRetainedEpochs));

  const std::string path = options.workdir + "/capture.pcap";
  std::unique_ptr<Pipeline> pipeline;
  const double setup = median_setup_seconds(kSetupRepeats, [&] {
    pipeline.reset();
    flow::SyntheticTraceConfig config;
    config.packet_count = kCapturePackets;
    config.flow_count = kFlows;
    config.zipf_alpha = kZipfAlpha;
    config.seed = options.seed;
    const flow::Trace trace = flow::SyntheticTraceGenerator(config).generate();
    std::vector<flow::Packet> packets(trace.packets().begin(), trace.packets().end());
    std::vector<flow::FlowKey> keys;
    keys.reserve(packets.size());
    for (const flow::Packet& packet : packets) keys.push_back(packet.key);
    const RankLabels labels(keys);
    for (flow::Packet& packet : packets) packet.key = labels(packet.key);
    write_capture(path, packets);
    pipeline = std::make_unique<Pipeline>();
  });
  result.set("setup_s", setup, "s", kSetupRepeats);

  reset_peak_rss();
  PhaseOutcome untraced = run_phase(*pipeline, path, options.seconds, nullptr);
  result.set("peak_rss_mb", peak_rss_mb(), "MiB");
  pipeline.reset();
  result.set("ingest_mpps", untraced.mpps, "Mpps", untraced.passes);
  report_percentiles(result, "epoch_result", "ms", 1e3, untraced.phase.epoch_result_s, true);
  check_phase(untraced, result);

  // The last pass's epochs are the capture's slices in order.
  const std::vector<framework::FcmFramework>& verified = untraced.phase.last_epochs;
  const auto decoded = untraced.last_pass.trace.packets();
  std::vector<double> are;
  std::size_t flows = 0;
  for (std::size_t i = 0; i < verified.size() && i * kEpochPackets < decoded.size(); ++i) {
    std::unordered_map<flow::FlowKey, std::uint64_t> truth;
    for (const flow::Packet& packet :
         decoded.subspan(i * kEpochPackets,
                         std::min(kEpochPackets, decoded.size() - i * kEpochPackets))) {
      truth[packet.key] += packet.bytes;
    }
    are.push_back(flow_are(truth, verified[i]));
    flows += truth.size();
  }
  if (!are.empty()) result.set("flow_are", mean(are), "ratio", flows);

  if (options.trace) {
    untraced.last_pass = {};  // keep one decoded capture in memory at a time
    Tracer tracer("driver");
    Pipeline traced_pipeline;
    const PhaseOutcome traced = run_phase(traced_pipeline, path, options.seconds, &tracer);
    check_phase(traced, result);
    report_runtime_layers(traced.phase, tracer, traced.packets, result);
    report_trace_overhead(untraced.mpps, traced.mpps, result);
    std::vector<double> load_s = tracer.durations("datapath.load_capture");
    result.set("datapath.load_capture_s", percentile(load_s, 0.5), "s", load_s.size());
    result.set("datapath.parse_failures", static_cast<double>(traced.decode_failures),
               "count", traced.records);
    result.set("datapath.cache_hit_ratio", traced_pipeline.cache_hit_ratio(), "ratio",
               traced.packets);

    const auto packets = traced.last_pass.trace.packets();
    const auto epoch = last_epoch_of(traced.last_pass);
    const auto previous =
        packets.first(packets.size() - epoch.size()).last(
            std::min(packets.size() - epoch.size(), kEpochPackets));
    probe_missing_layers({epoch, previous, options.workdir}, result);
    result.spans_file = options.workdir + "/spans.jsonl";
    write_spans(result.spans_file, {&tracer});
  }
  std::remove(path.c_str());
}

}  // namespace perfbench
