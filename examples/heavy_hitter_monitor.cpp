// Heavy-hitter monitor: the traffic-engineering scenario from the paper's
// introduction. The data plane flags flows crossing a byte/packet threshold
// as they happen (no control-plane round trip), and a periodic collection
// compares adjacent windows for heavy *changes* — the anomaly-detection
// primitive of §4.4.
//
// Build & run:  ./build/examples/heavy_hitter_monitor
#include <cstdio>

#include "framework/fcm_framework.h"
#include "flow/synthetic.h"
#include "metrics/metrics.h"

int main() {
  using namespace fcm;

  // Two adjacent 15s-style measurement windows with 40% flow churn — e.g. a
  // content cache failing over, shifting load between origin servers.
  flow::SyntheticTraceConfig config;
  config.packet_count = 2'000'000;
  config.flow_count = 50'000;
  config.zipf_alpha = 1.2;
  config.seed = 11;
  const flow::WindowPair windows = flow::make_window_pair(config, 0.4);

  const flow::GroundTruth truth_a(windows.window_a);
  const flow::GroundTruth truth_b(windows.window_b);
  const std::uint64_t threshold = truth_a.total_packets() / 2000;  // 0.05%

  framework::FcmFramework::Options options;
  options.fcm = core::FcmConfig::for_memory(600'000, 2, 8, {8, 16, 32});
  options.heavy_hitter_threshold = threshold;

  // One framework instance per window; in a deployment the same switch
  // would be collected and reset between windows (framework.reset()).
  framework::FcmFramework window_a(options);
  framework::FcmFramework window_b(options);
  window_a.process(windows.window_a.packets());
  window_b.process(windows.window_b.packets());

  // --- live heavy hitters (data-plane query) ---
  const auto reported = window_b.heavy_hitters();
  const auto actual = truth_b.heavy_hitters(threshold);
  const auto hh_scores = metrics::classification_scores(reported, actual);
  std::printf("window B heavy hitters (>=%llu pkts): reported=%zu actual=%zu "
              "precision=%.3f recall=%.3f F1=%.3f\n",
              static_cast<unsigned long long>(threshold), hh_scores.reported,
              hh_scores.actual, hh_scores.precision, hh_scores.recall,
              hh_scores.f1);
  std::size_t shown = 0;
  for (const flow::FlowKey key : reported) {
    if (shown++ == 5) break;
    std::printf("  %s  ~%llu packets\n", flow::to_string(key).c_str(),
                static_cast<unsigned long long>(window_b.flow_size(key)));
  }

  // --- heavy changes between the windows (control plane, §4.4) ---
  const auto changes =
      framework::FcmFramework::heavy_changes(window_a, window_b, threshold);
  const auto true_changes = flow::true_heavy_changes(truth_a, truth_b, threshold);
  const auto hc_scores = metrics::classification_scores(changes, true_changes);
  std::printf("\nheavy changes (|delta| > %llu): reported=%zu actual=%zu F1=%.3f\n",
              static_cast<unsigned long long>(threshold), hc_scores.reported,
              hc_scores.actual, hc_scores.f1);
  shown = 0;
  for (const flow::FlowKey key : changes) {
    if (shown++ == 5) break;
    std::printf("  %s  window A ~%llu -> window B ~%llu\n",
                flow::to_string(key).c_str(),
                static_cast<unsigned long long>(window_a.flow_size(key)),
                static_cast<unsigned long long>(window_b.flow_size(key)));
  }
  return 0;
}
