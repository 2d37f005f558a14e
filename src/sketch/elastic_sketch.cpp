#include "sketch/elastic_sketch.h"

#include <algorithm>
#include <stdexcept>

namespace fcm::sketch {

ElasticSketch::ElasticSketch(Config config)
    : config_(config),
      light_hash_(common::make_hash(config.seed, 0xff)),
      light_(config.light_counters, 0) {
  if (config_.heavy_levels == 0 || config_.light_counters == 0) {
    throw std::invalid_argument("ElasticSketch: bad geometry");
  }
  for (std::size_t level = 0; level < config_.heavy_levels; ++level) {
    heavy_.emplace_back(config_.entries_per_level, config_.eviction_lambda,
                        common::mix64(config_.seed + level));
  }
}

ElasticSketch ElasticSketch::for_memory(std::size_t memory_bytes,
                                        std::uint64_t seed) {
  Config config;
  config.seed = seed;
  const std::size_t heavy_bytes =
      config.heavy_levels * config.entries_per_level * 8;
  if (memory_bytes <= heavy_bytes) {
    throw std::invalid_argument(
        "ElasticSketch::for_memory: budget below the fixed heavy part");
  }
  config.light_counters = memory_bytes - heavy_bytes;  // 1 byte per counter
  return ElasticSketch(config);
}

void ElasticSketch::light_add(flow::FlowKey key, std::uint64_t count) {
  auto& cell = light_[light_hash_.index(key, light_.size())];
  const std::uint64_t next = cell + count;
  cell = static_cast<std::uint8_t>(std::min<std::uint64_t>(next, 255));
}

void ElasticSketch::update(flow::FlowKey key) {
  flow::FlowKey current = key;
  for (auto& level : heavy_) {
    const TopKFilter::Offer offer = level.offer(current);
    switch (offer.outcome) {
      case TopKFilter::Offer::Outcome::kKept:
        return;
      case TopKFilter::Offer::Outcome::kEvicted:
        // The incumbent's count moves toward the light part; in the P4
        // pipeline it would roll to the next stage — flushing directly to
        // the light part is the published P4-version behaviour.
        light_add(offer.evicted_key, offer.evicted_count);
        return;
      case TopKFilter::Offer::Outcome::kPassThrough:
        break;  // try the next level with the same packet
    }
  }
  light_add(current, 1);
}

std::uint64_t ElasticSketch::query(flow::FlowKey key) const {
  std::uint64_t heavy_total = 0;
  bool found = false;
  bool residue = false;
  for (const auto& level : heavy_) {
    if (const auto hit = level.query(key)) {
      heavy_total += hit->count;
      residue = residue || hit->has_light_part;
      found = true;
    }
  }
  if (!found) return light_query(key);
  return residue ? heavy_total + light_query(key) : heavy_total;
}

std::uint64_t ElasticSketch::light_query(flow::FlowKey key) const {
  return light_[light_hash_.index(key, light_.size())];
}

std::size_t ElasticSketch::memory_bytes() const {
  std::size_t total = light_.size();
  for (const auto& level : heavy_) total += level.memory_bytes();
  return total;
}

std::unordered_map<flow::FlowKey, std::uint64_t> ElasticSketch::heavy_flows() const {
  std::unordered_map<flow::FlowKey, std::uint64_t> flows;
  for (const auto& level : heavy_) {
    for (const auto& entry : level.entries()) {
      flows[entry.key] += entry.count;
    }
  }
  return flows;
}

void ElasticSketch::clear() {
  for (auto& level : heavy_) level.clear();
  std::fill(light_.begin(), light_.end(), std::uint8_t{0});
}

}  // namespace fcm::sketch
