// Network-wide aggregation demo (DESIGN.md §11): four vantage points run
// the same FCM configuration, serialize their sketches once per epoch, and
// a central AggregationService merges each complete epoch bit-exactly and
// publishes an immutable NetworkView to the query plane. The demo also
// injects the faults a real collector sees — a truncated frame, a replayed
// snapshot, a vantage that dies mid-run — and shows how each surfaces as a
// typed DeliveryStatus instead of corrupted state.
//
// Build & run:  ./build/examples/aggregate_demo
#include <cstdio>
#include <vector>

#include "agg/agg_service.h"
#include "flow/synthetic.h"

int main() {
  using namespace fcm;

  constexpr std::size_t kVantages = 4;
  constexpr std::uint64_t kEpochs = 3;
  constexpr std::uint64_t kThreshold = 2'000;  // network-wide heavy-hitter T

  agg::AggregationService::Options options;
  options.reference.fcm = core::FcmConfig::for_memory(600'000, 2, 8, {8, 16, 32});
  options.reference.heavy_hitter_threshold = kThreshold;
  options.vantage_count = kVantages;
  options.heavy_change_threshold = kThreshold / 2;
  options.metrics = nullptr;  // keep the demo output to this program's prints

  agg::AggregationService service(options);

  // Vantages run vantage_options(): the reference configuration with the
  // heavy-hitter threshold scaled to ceil(T/N), so a flow crossing T only
  // in aggregate still appears in some vantage's candidate set. In a real
  // deployment each VantagePoint lives on its own switch/collector.
  std::vector<agg::VantagePoint> vantages;
  vantages.reserve(kVantages);
  for (std::uint32_t v = 0; v < kVantages; ++v) {
    vantages.emplace_back(v, service.vantage_options(), service);
  }
  std::printf("config fingerprint %016llx, per-vantage threshold %llu "
              "(network-wide T=%llu over %zu vantages)\n\n",
              static_cast<unsigned long long>(service.expected_fingerprint()),
              static_cast<unsigned long long>(
                  service.vantage_options().heavy_hitter_threshold),
              static_cast<unsigned long long>(kThreshold), kVantages);

  for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    // One measurement window: ECMP-style round-robin of the epoch's packets
    // across the vantage points, so every vantage sees a slice of every
    // flow and only the merged view holds network-wide counts.
    flow::SyntheticTraceConfig config;
    config.packet_count = 400'000;
    config.flow_count = 20'000;
    config.zipf_alpha = 1.2;
    config.seed = 100 + epoch;
    const flow::Trace trace = flow::SyntheticTraceGenerator(config).generate();
    std::size_t cursor = 0;
    for (const flow::Packet& packet : trace.packets()) {
      vantages[cursor++ % kVantages].framework().process(packet.key);
    }

    if (epoch == 2) {
      // Fault injection: a truncated frame is rejected by the codec's
      // hostile-input checks before it can touch service state.
      agg::SnapshotEnvelope hostile;
      hostile.vantage_id = 1;
      hostile.epoch = epoch;
      hostile.payload = agg::WireCodec::serialize(vantages[1].framework());
      hostile.payload.resize(hostile.payload.size() / 2);
      std::printf("  truncated frame from vantage 1: %s\n",
                  agg::to_string(service.deliver(std::move(hostile))));
    }

    const std::size_t alive = (epoch == kEpochs) ? kVantages - 1 : kVantages;
    for (std::size_t v = 0; v < alive; ++v) {
      const agg::DeliveryStatus status = vantages[v].flush(epoch);
      std::printf("  vantage %zu epoch %llu: %s\n", v,
                  static_cast<unsigned long long>(epoch),
                  agg::to_string(status));
    }
    if (epoch == kEpochs) {
      // Vantage 3 died mid-window. finalize_epoch() publishes the epoch
      // partial rather than wedging the query plane (the watchdog
      // max_pending_epochs would do the same once enough epochs backed up).
      std::printf("  vantage %zu epoch %llu: (dropped — finalizing partial)\n",
                  alive, static_cast<unsigned long long>(epoch));
      service.finalize_epoch(epoch);
    }
    if (epoch == 1) {
      // Fault injection: replaying an already-merged snapshot never double
      // counts — it bounces as a duplicate (epoch still pending) or as
      // stale (epoch already published, as here).
      std::printf("  replayed flush from vantage 0: %s\n",
                  agg::to_string(vantages[0].flush(epoch)));
    }

    // Readers get snapshot isolation: the view is immutable, shared, and
    // never blocks (or is blocked by) deliver().
    const auto view = service.query_plane().current();
    if (view == nullptr) continue;
    std::printf("epoch %llu published: %zu/%zu vantages, cardinality %.0f, "
                "%zu heavy hitters, %zu heavy changes\n",
                static_cast<unsigned long long>(view->epoch),
                view->vantages.size(), kVantages, view->cardinality,
                view->heavy_hitters.size(), view->heavy_changes.size());
    std::size_t shown = 0;
    for (const flow::FlowKey key : view->heavy_hitters) {
      if (shown++ == 3) break;
      std::printf("    %s  ~%llu packets network-wide\n",
                  flow::to_string(key).c_str(),
                  static_cast<unsigned long long>(view->network.flow_size(key)));
    }
    std::printf("\n");
  }
  return 0;
}
