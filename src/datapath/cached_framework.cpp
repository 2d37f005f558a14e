#include "datapath/cached_framework.h"

#include <unordered_set>

namespace fcm::datapath {

CachedFramework::CachedFramework(Options options)
    : options_(std::move(options)),
      framework_([&] {
        // One telemetry knob for the whole composition (the sharded runtime
        // sets the same precedent): Options::metrics overrides the nested
        // framework's sink.
        options_.framework.metrics = options_.metrics;
        return options_.framework;
      }()),
      cache_(options_.cache),
      metrics_(options_.metrics, options_.metrics_instance) {}

void CachedFramework::offer(flow::FlowKey key, std::uint64_t count) {
  if (count == 0) return;  // kBytes mode: a zero-byte packet adds nothing
  const HeavyFlowCache::Result result = cache_.offer(key, count);
  if (result.demote_count > 0) {
    framework_.process_weighted(result.demote_key, result.demote_count);
  }
}

void CachedFramework::process(flow::FlowKey key) { offer(key, 1); }

void CachedFramework::process(const flow::Packet& packet) {
  if (options_.framework.count_mode ==
      framework::FcmFramework::CountMode::kBytes) {
    offer(packet.key, packet.bytes);
  } else {
    offer(packet.key, 1);
  }
}

void CachedFramework::process(std::span<const flow::Packet> packets) {
  if (options_.framework.count_mode ==
      framework::FcmFramework::CountMode::kBytes) {
    for (const flow::Packet& packet : packets) offer(packet.key, packet.bytes);
  } else {
    for (const flow::Packet& packet : packets) offer(packet.key, 1);
  }
}

void CachedFramework::process_batch(std::span<const flow::FlowKey> keys) {
  // No bulk kernel here on purpose: a hit is one hash + one increment —
  // already cheaper than the batched tree walk it replaces — and misses are
  // weighted demotions, which the batch kernel (+1-only) cannot express.
  for (const flow::FlowKey key : keys) offer(key, 1);
}

std::uint64_t CachedFramework::flow_size(flow::FlowKey key) const {
  return cache_.count_of(key) + framework_.flow_size(key);
}

std::vector<flow::FlowKey> CachedFramework::heavy_hitters() const {
  std::unordered_set<flow::FlowKey> merged;
  for (const flow::FlowKey key : framework_.heavy_hitters()) merged.insert(key);
  const std::uint64_t threshold = options_.framework.heavy_hitter_threshold;
  if (threshold > 0) {
    cache_.for_each([&](flow::FlowKey key, std::uint64_t count) {
      // Combined estimate: the resident exact count plus whatever earlier
      // demotions of this flow left in the sketch.
      if (count + framework_.flow_size(key) >= threshold) merged.insert(key);
    });
  }
  return {merged.begin(), merged.end()};
}

framework::FcmFramework CachedFramework::snapshot() const {
  metrics_.publish(cache_);
  framework::FcmFramework folded = framework_;
  cache_.for_each([&](flow::FlowKey key, std::uint64_t count) {
    folded.process_weighted(key, count);
  });
  return folded;
}

void CachedFramework::reset() {
  metrics_.publish(cache_);
  framework_.reset();
  // The resident counts go the way of the sketch they would have joined.
  cache_.drain([](flow::FlowKey, std::uint64_t) {});
}

void CachedFramework::check_invariants() const {
  framework_.check_invariants();
  cache_.check_invariants();
}

}  // namespace fcm::datapath
