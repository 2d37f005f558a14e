// network_epochs: the control plane (virtual-counter conversion, EM, heavy
// change), the wire format, merge/publish and the query plane do the work.
// Vantage ingest is serial in the main thread, the single-threaded baseline.
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "agg/agg_service.h"
#include "agg/wire.h"
#include "controlplane/em.h"
#include "controlplane/virtual_counter.h"
#include "flow/synthetic.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kVantages = 4;
constexpr std::size_t kWindowPackets = std::size_t{1} << 21;
constexpr std::size_t kWindowFlows = std::size_t{1} << 16;
constexpr double kZipfAlpha = 1.1;
constexpr double kChurn = 0.1;
constexpr std::uint64_t kHeavyHitterThreshold = 1'000;
constexpr std::uint64_t kHeavyChangeThreshold = 1'000;
constexpr std::size_t kQueryBurst = 16;
constexpr std::size_t kQuerySamples = std::size_t{1} << 21;

struct Window {
  flow::Trace trace;
  std::vector<flow::FlowKey> keys;
  std::unique_ptr<flow::GroundTruth> truth;
};

struct Inputs {
  Window a;  // odd epochs
  Window b;  // even epochs
  std::vector<flow::FlowKey> query_keys;
};

Window make_window(const flow::Trace& generated, const RankLabels& labels) {
  Window window;
  std::vector<flow::Packet> packets(generated.packets().begin(), generated.packets().end());
  window.keys.reserve(packets.size());
  for (flow::Packet& packet : packets) {
    packet.key = labels(packet.key);
    window.keys.push_back(packet.key);
  }
  window.trace = flow::Trace(std::move(packets));
  window.truth = std::make_unique<flow::GroundTruth>(window.trace);
  return window;
}

Inputs make_inputs(std::uint64_t seed) {
  flow::SyntheticTraceConfig config;
  config.packet_count = kWindowPackets;
  config.flow_count = kWindowFlows;
  config.zipf_alpha = kZipfAlpha;
  config.seed = seed;
  const flow::WindowPair pair = flow::make_window_pair(config, kChurn);
  // Ranks over both windows, so a flow keeps one label across the pair.
  std::vector<flow::FlowKey> keys;
  keys.reserve(pair.window_a.size() + pair.window_b.size());
  for (const flow::Trace* trace : {&pair.window_a, &pair.window_b}) {
    for (const flow::Packet& packet : trace->packets()) keys.push_back(packet.key);
  }
  const RankLabels labels(keys);
  Inputs inputs;
  inputs.a = make_window(pair.window_a, labels);
  inputs.b = make_window(pair.window_b, labels);
  for (std::size_t i = 0; i < kQueryBurst; ++i) {
    inputs.query_keys.push_back(inputs.b.keys[i * 4099 % inputs.b.keys.size()]);
  }
  return inputs;
}

// The registry is declared first so it outlives everything that writes it.
struct Pipeline {
  std::unique_ptr<obs::MetricsRegistry> registry = std::make_unique<obs::MetricsRegistry>();
  std::unique_ptr<agg::AggregationService> service;
  std::vector<framework::FcmFramework> vantages;

  Pipeline() {
    agg::AggregationService::Options options;
    options.reference = sketch_options(registry.get());
    options.reference.heavy_hitter_threshold = kHeavyHitterThreshold;
    options.vantage_count = kVantages;
    options.heavy_change_threshold = kHeavyChangeThreshold;
    options.analyze_on_publish = true;
    options.metrics = registry.get();
    service = std::make_unique<agg::AggregationService>(options);
    for (std::size_t v = 0; v < kVantages; ++v) {
      vantages.emplace_back(service->vantage_options());
    }
  }
};

struct PhaseOutcome {
  std::uint64_t epochs = 0;
  std::uint64_t packets = 0;
  // Per epoch: packets over process_batch + serialize time of all vantages.
  std::vector<double> epoch_mpps;
  double mpps = 0.0;  // median of epoch_mpps
  std::vector<double> epoch_result_s;  // completing deliver() durations
  std::vector<double> query_s;         // reader burst latencies (sampled)
  std::uint64_t queries = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t rejected = 0;
  std::uint64_t unpublished = 0;  // epochs without a view and report
  std::shared_ptr<const agg::NetworkView> last_view;
  std::size_t snapshot_bytes = 0;
};

PhaseOutcome run_phase(Pipeline& pipeline, const Inputs& inputs, std::uint64_t seed,
                       double seconds, Tracer* tracer) {
  agg::AggregationService& service = *pipeline.service;
  PhaseOutcome out;

  // Closed-loop reader: pin the current view, answer a burst, repeat.
  Reservoir queries(kQuerySamples, seed);
  std::uint64_t sink = 0;         // main thread only
  std::uint64_t reader_sink = 0;  // written by the reader, read after join
  std::jthread reader([&](const std::stop_token& stop) {
    std::uint64_t answered = 0;
    while (!stop.stop_requested()) {
      const double t0 = now_s();
      const auto view = service.query_plane().current();
      if (view == nullptr) {
        std::this_thread::yield();
        continue;
      }
      for (const flow::FlowKey key : inputs.query_keys) {
        answered += view->network.flow_size(key);
      }
      queries.add(now_s() - t0);
    }
    reader_sink = answered;
  });

  std::shared_ptr<const agg::NetworkView> previous;
  const double start = now_s();
  for (std::uint64_t epoch = 1; epoch % 2 == 0 || now_s() - start < seconds; ++epoch) {
    const Window& window = epoch % 2 == 1 ? inputs.a : inputs.b;
    const std::span<const flow::FlowKey> keys(window.keys);
    const std::size_t quarter = keys.size() / kVantages;
    double ingest_s = 0.0;
    for (std::uint32_t v = 0; v < kVantages; ++v) {
      framework::FcmFramework& vantage = pipeline.vantages[v];
      const auto share = keys.subspan(v * quarter, v + 1 == kVantages
                                                       ? keys.size() - v * quarter
                                                       : quarter);
      agg::SnapshotEnvelope envelope;
      envelope.vantage_id = v;
      envelope.epoch = epoch;
      const double t0 = now_s();
      {
        const ScopedSpan span(tracer, "fcm.process_batch", epoch);
        vantage.process_batch(share);
      }
      {
        const ScopedSpan span(tracer, "agg.serialize", epoch);
        envelope.payload = agg::WireCodec::serialize(vantage);
      }
      ingest_s += now_s() - t0;
      out.packets += share.size();
      out.snapshot_bytes = envelope.payload.size();
      vantage.reset();

      const bool completes = v + 1 == kVantages;
      const double d0 = now_s();
      agg::DeliveryStatus status;
      {
        const ScopedSpan span(tracer, completes ? "agg.deliver_publish" : "agg.deliver",
                              epoch);
        status = service.deliver(std::move(envelope));
      }
      if (completes) out.epoch_result_s.push_back(now_s() - d0);
      ++out.deliveries;
      if (status != agg::DeliveryStatus::kAccepted) ++out.rejected;
    }
    out.epoch_mpps.push_back(static_cast<double>(keys.size()) / ingest_s / 1e6);
    const auto view = service.query_plane().current();
    if (view == nullptr || view->epoch != epoch || !view->report) ++out.unpublished;
    if (tracer != nullptr && view != nullptr) {
      {
        const ScopedSpan span(tracer, "controlplane.convert", epoch);
        sink += control::convert_sketch(view->network.sketch()).size();
      }
      if (previous != nullptr) {
        const ScopedSpan span(tracer, "controlplane.heavy_change", epoch);
        sink += framework::FcmFramework::heavy_changes(previous->network, view->network,
                                                       kHeavyChangeThreshold)
                    .size();
      }
    }
    previous = view;
    out.epochs = epoch;
  }
  reader.request_stop();
  reader.join();
  if (sink + reader_sink == 0x5eed) std::fprintf(stderr, "perfbench: sink %llu\n",
                                   static_cast<unsigned long long>(sink + reader_sink));

  out.mpps = percentile(out.epoch_mpps, 0.5);
  out.query_s = queries.samples();
  out.queries = queries.seen();
  out.last_view = previous;
  return out;
}

void check_phase(const PhaseOutcome& out, const Inputs& inputs, Result& result) {
  result.record("deliveries accepted", out.deliveries, out.rejected);
  result.record("epochs published with a report", out.epochs, out.unpublished);
  framework::FcmFramework serial(sketch_options(nullptr));
  serial.process_batch(inputs.b.keys);
  result.gate("network view counters equal serial FCM",
              out.last_view != nullptr && out.last_view->epoch % 2 == 0 &&
                  same_counter_state(out.last_view->network.sketch(), serial.sketch()));
}

}  // namespace

void run_network_epochs(const RunOptions& options, Result& result) {
  result.param("vantages", static_cast<double>(kVantages));
  result.param("window_packets", static_cast<double>(kWindowPackets));
  result.param("window_flows", static_cast<double>(kWindowFlows));
  result.param("zipf_alpha", kZipfAlpha);
  result.param("churn", kChurn);
  result.param("heavy_hitter_threshold", static_cast<double>(kHeavyHitterThreshold));
  result.param("heavy_change_threshold", static_cast<double>(kHeavyChangeThreshold));
  result.param("analyze_on_publish", "on (EM at library defaults)");
  result.param("query_burst", static_cast<double>(kQueryBurst));
  result.param("sketch_bytes", static_cast<double>(kSketchBytes));

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
  const PhaseOutcome untraced =
      run_phase(*pipeline, inputs, options.seed, options.seconds, nullptr);
  result.set("peak_rss_mb", peak_rss_mb(), "MiB");
  pipeline.reset();
  result.set("ingest_mpps", untraced.mpps, "Mpps", untraced.epochs);
  report_percentiles(result, "epoch_result", "ms", 1e3, untraced.epoch_result_s, true);
  report_percentiles(result, "query", "us", 1e6, untraced.query_s);
  result.param("query_bursts_answered", static_cast<double>(untraced.queries));
  check_phase(untraced, inputs, result);

  const flow::GroundTruth& truth = *inputs.b.truth;
  if (untraced.last_view != nullptr) {
    const agg::NetworkView& view = *untraced.last_view;
    result.set("flow_are", flow_are(truth.flow_sizes(), view.network), "ratio",
               truth.flow_count());
    if (view.report) {
      result.set("fsd_wmre", view.report->fsd.wmre(truth.flow_size_distribution()),
                 "ratio", truth.flow_count());
      result.set("entropy_rel_err",
                 std::abs(view.report->entropy - truth.entropy()) / truth.entropy(),
                 "ratio", 1);
    }
  }

  if (!options.trace) return;
  Tracer tracer("main");
  Pipeline traced_pipeline;
  const PhaseOutcome traced =
      run_phase(traced_pipeline, inputs, options.seed, options.seconds, &tracer);
  check_phase(traced, inputs, result);
  report_trace_overhead(untraced.mpps, traced.mpps, result);

  const auto in_ms = [](std::vector<double> seconds) {
    for (double& s : seconds) s *= 1e3;
    return seconds;
  };
  const auto set_p50_ms = [&](const char* metric, const char* span) {
    const std::vector<double> ms = in_ms(tracer.durations(span));
    result.set(metric, percentile(ms, 0.5), "ms", ms.size());
  };
  result.set("fcm.apply_ns_per_pkt",
             tracer.total("fcm.process_batch") * 1e9 / static_cast<double>(traced.packets),
             "ns", traced.packets);
  set_p50_ms("agg.serialize_ms", "agg.serialize");
  set_p50_ms("agg.deliver_ms", "agg.deliver");
  result.set("agg.snapshot_bytes", static_cast<double>(traced.snapshot_bytes), "bytes");
  set_p50_ms("controlplane.convert_ms", "controlplane.convert");
  set_p50_ms("controlplane.heavy_change_ms", "controlplane.heavy_change");

  // EM iterations and one analyze() on the last published view.
  if (traced.last_view != nullptr) {
    const framework::FcmFramework& network = traced.last_view->network;
    control::EmConfig em;
    em.metrics = nullptr;
    control::EmFsdEstimator estimator(control::convert_sketch(network.sketch()), em);
    std::vector<double> iterations;
    {
      const ScopedSpan span(&tracer, "controlplane.em", traced.epochs);
      estimator.run([&](std::size_t, double seconds, const control::FlowSizeDistribution&) {
        iterations.push_back(seconds * 1e3);
      });
    }
    result.set("controlplane.em_iter_ms", percentile(iterations, 0.5), "ms",
               iterations.size());
    {
      const ScopedSpan span(&tracer, "framework.analyze", traced.epochs);
      network.analyze();
    }
    set_p50_ms("framework.analyze_ms", "framework.analyze");
  }

  probe_missing_layers({inputs.b.trace.packets(), inputs.a.trace.packets(), options.workdir},
                       result);
  result.spans_file = options.workdir + "/spans.jsonl";
  write_spans(result.spans_file, {&tracer});
}

}  // namespace perfbench
