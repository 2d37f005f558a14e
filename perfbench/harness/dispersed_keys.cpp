// dispersed_keys: route/stage, ring hand-off, hash/index and the level-1 fast
// path do nearly all the work. Keys are dispersed (2^20 flows, Zipf 1.1), so
// the carry walk barely runs; the datapath, cache and control plane do not
// run at all.
#include <memory>
#include <unordered_map>

#include "flow/synthetic.h"
#include "probes.h"
#include "runtime_phase.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kPoolKeys = std::size_t{1} << 23;
constexpr std::size_t kFlows = std::size_t{1} << 20;
constexpr double kZipfAlpha = 1.1;
constexpr std::size_t kEpochPackets = std::size_t{1} << 20;
constexpr std::size_t kEpochsPerPool = kPoolKeys / kEpochPackets;
constexpr std::size_t kShards = 2;
constexpr std::size_t kRetainedEpochs = 16;

struct Inputs {
  std::vector<flow::FlowKey> pool;  // pre-stripped keys, replayed in order
  // The pool's last two epochs as packets (with sizes), for the layer probes.
  std::vector<flow::Packet> last_epoch;
  std::vector<flow::Packet> previous_epoch;
};

Inputs make_inputs(std::uint64_t seed) {
  flow::SyntheticTraceConfig config;
  config.packet_count = kPoolKeys;
  config.flow_count = kFlows;
  config.zipf_alpha = kZipfAlpha;
  config.seed = seed;
  const flow::Trace trace = flow::SyntheticTraceGenerator(config).generate();
  Inputs inputs;
  inputs.pool.reserve(trace.size());
  for (const flow::Packet& packet : trace.packets()) inputs.pool.push_back(packet.key);
  const RankLabels labels(inputs.pool);
  for (flow::FlowKey& key : inputs.pool) key = labels(key);
  const auto epoch_packets = [&](std::size_t epoch) {
    const auto slice = trace.packets().subspan(epoch * kEpochPackets, kEpochPackets);
    std::vector<flow::Packet> packets(slice.begin(), slice.end());
    for (flow::Packet& packet : packets) packet.key = labels(packet.key);
    return packets;
  };
  inputs.last_epoch = epoch_packets(kEpochsPerPool - 1);
  inputs.previous_epoch = epoch_packets(kEpochsPerPool - 2);
  return inputs;
}

// The registry is declared first so it outlives the runtime that writes it.
struct Pipeline {
  std::unique_ptr<obs::MetricsRegistry> registry = std::make_unique<obs::MetricsRegistry>();
  std::unique_ptr<runtime::ShardedFcmFramework> runtime;

  Pipeline() {
    runtime::ShardedFcmFramework::Options options;
    options.framework = sketch_options(registry.get());
    options.shard_count = kShards;
    options.fanout = runtime::ShardedFcmFramework::Fanout::kHashByKey;
    options.retained_epochs = kRetainedEpochs;
    options.metrics = registry.get();
    runtime = std::make_unique<runtime::ShardedFcmFramework>(options);
  }
};

struct PhaseOutcome {
  RuntimePhase phase;
  std::uint64_t packets = 0;
  double mpps = 0.0;
};

PhaseOutcome run_phase(Pipeline& pipeline, const Inputs& inputs, double seconds,
                       Tracer* tracer) {
  runtime::ShardedFcmFramework& rt = *pipeline.runtime;
  const std::span<const flow::FlowKey> pool(inputs.pool);
  const auto feed = [&](Tracer* spans) {
    return [&rt, pool, spans](std::size_t epoch) {
      const ScopedSpan span(spans, "runtime.ingest", epoch);
      rt.ingest(pool.subspan((epoch % kEpochsPerPool) * kEpochPackets, kEpochPackets));
    };
  };
  // Warm-up: one pool cycle, untimed, so rings and sketches are faulted in.
  drive_epochs(rt, feed(nullptr),
               [](std::size_t next, double) { return next < kEpochsPerPool; }, nullptr);
  PhaseOutcome out;
  out.phase = drive_epochs(
      rt, feed(tracer),
      // Whole pool cycles only, so the last epoch is always the pool's last.
      [&](std::size_t next, double elapsed) {
        return next % kEpochsPerPool != 0 || elapsed < seconds;
      },
      tracer, kEpochsPerPool);
  out.packets = out.phase.epochs * kEpochPackets;
  // The 95th percentile of per-epoch rates: with driver, two workers and the
  // coordinator on a shared host, whole stretches of epochs run at two thirds
  // speed when neighbours are busy, and the median flipped between the two
  // regimes from run to run. Over a thousand epochs support this percentile;
  // under a competing memory-bound process its spread over seeds was below
  // that of the 90th.
  out.mpps = rate_mpps(out.phase, 1, kEpochPackets, 0.95);
  return out;
}

void check_phase(const PhaseOutcome& out, const Inputs& inputs, Result& result) {
  const RuntimePhase& phase = out.phase;
  result.gate("epoch waiter: " + phase.waiter_error, phase.waiter_error.empty());
  result.gate("every epoch reported", phase.reports.size() == phase.epochs);
  std::uint64_t accounted = 0;
  for (const auto& report : phase.reports) accounted += report.packets;
  const std::uint64_t lost =
      accounted > out.packets ? accounted - out.packets : out.packets - accounted;
  result.record("packets accounted in epoch reports", out.packets, lost);

  framework::FcmFramework serial(sketch_options(nullptr));
  const std::span<const flow::FlowKey> last =
      std::span<const flow::FlowKey>(inputs.pool).last(kEpochPackets);
  serial.process_batch(last);
  result.gate("merged epoch counters equal serial FCM",
              !phase.last_epochs.empty() &&
                  same_counter_state(phase.last_epochs.back().sketch(), serial.sketch()));
}

}  // namespace

void run_dispersed_keys(const RunOptions& options, Result& result) {
  result.param("pool_keys", static_cast<double>(kPoolKeys));
  result.param("flows", static_cast<double>(kFlows));
  result.param("zipf_alpha", kZipfAlpha);
  result.param("epoch_packets", static_cast<double>(kEpochPackets));
  result.param("shards", static_cast<double>(kShards));
  result.param("fanout", "hash");
  result.param("count_mode", "packets");
  result.param("cache_entries", 0.0);
  result.param("analysis", "off");
  result.param("sketch_bytes", static_cast<double>(kSketchBytes));
  result.param("retained_epochs", static_cast<double>(kRetainedEpochs));

  Inputs inputs;
  std::unique_ptr<Pipeline> pipeline;
  const double setup = median_setup_seconds(kSetupRepeats, [&] {
    pipeline.reset();
    inputs = Inputs{};
    inputs = make_inputs(options.seed);
    pipeline = std::make_unique<Pipeline>();
  });
  result.set("setup_s", setup, "s", kSetupRepeats);

  reset_peak_rss();
  const PhaseOutcome untraced = run_phase(*pipeline, inputs, options.seconds, nullptr);
  result.set("peak_rss_mb", peak_rss_mb(), "MiB");
  pipeline.reset();
  result.set("ingest_mpps", untraced.mpps, "Mpps", untraced.phase.epochs);
  report_percentiles(result, "epoch_result", "ms", 1e3, untraced.phase.epoch_result_s, true);
  check_phase(untraced, inputs, result);

  // The last pool cycle's epochs are the pool's slices in order.
  const std::vector<framework::FcmFramework>& verified = untraced.phase.last_epochs;
  std::vector<double> are;
  std::size_t flows = 0;
  for (std::size_t i = 0; i < verified.size(); ++i) {
    std::unordered_map<flow::FlowKey, std::uint64_t> truth;
    for (const flow::FlowKey key : std::span<const flow::FlowKey>(inputs.pool)
                                       .subspan(i * kEpochPackets, kEpochPackets)) {
      ++truth[key];
    }
    are.push_back(flow_are(truth, verified[i]));
    flows += truth.size();
  }
  if (!are.empty()) result.set("flow_are", mean(are), "ratio", flows);

  if (!options.trace) return;
  Tracer tracer("driver");
  Pipeline traced_pipeline;
  const PhaseOutcome traced = run_phase(traced_pipeline, inputs, options.seconds, &tracer);
  check_phase(traced, inputs, result);
  report_runtime_layers(traced.phase, tracer, traced.packets, result);
  report_trace_overhead(untraced.mpps, traced.mpps, result);
  probe_missing_layers({inputs.last_epoch, inputs.previous_epoch, options.workdir},
                       result);
  result.spans_file = options.workdir + "/spans.jsonl";
  write_spans(result.spans_file, {&tracer});
}

}  // namespace perfbench
