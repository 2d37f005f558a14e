#include "fcm/fcm_topk.h"

#include <stdexcept>

namespace fcm::core {

FcmTopK::FcmTopK(Config config)
    : sketch_(config.fcm),
      filter_(config.topk_entries, config.eviction_lambda,
              common::mix64(config.fcm.seed ^ 0x70b4)) {}

FcmTopK FcmTopK::for_memory(std::size_t memory_bytes, std::size_t tree_count,
                            std::size_t k, std::size_t topk_entries,
                            std::uint64_t seed) {
  const std::size_t filter_bytes = topk_entries * 8;
  if (memory_bytes <= filter_bytes) {
    throw std::invalid_argument("FcmTopK::for_memory: budget below filter size");
  }
  Config config;
  config.topk_entries = topk_entries;
  config.fcm = FcmConfig::for_memory(memory_bytes - filter_bytes, tree_count, k,
                                     {8, 16, 32}, seed);
  return FcmTopK(config);
}

void FcmTopK::update(flow::FlowKey key) {
  const auto offer = filter_.offer(key);
  switch (offer.outcome) {
    case sketch::TopKFilter::Offer::Outcome::kKept:
      break;
    case sketch::TopKFilter::Offer::Outcome::kPassThrough:
      sketch_.update(key);
      break;
    case sketch::TopKFilter::Offer::Outcome::kEvicted:
      sketch_.add(offer.evicted_key, offer.evicted_count);
      break;
  }
}

std::uint64_t FcmTopK::query(flow::FlowKey key) const {
  if (const auto hit = filter_.query(key)) {
    return hit->has_light_part ? hit->count + sketch_.query(key) : hit->count;
  }
  return sketch_.query(key);
}

double FcmTopK::estimate_cardinality() const {
  // Filter-resident flows without light-part residue never touched the
  // sketch's leaves; add them to the linear-counting estimate.
  double extra = 0.0;
  for (const auto& entry : filter_.entries()) {
    if (!entry.has_light_part) extra += 1.0;
  }
  return sketch_.estimate_cardinality() + extra;
}

void FcmTopK::set_heavy_hitter_threshold(std::uint64_t threshold) {
  sketch_.set_heavy_hitter_threshold(threshold);
}

std::vector<flow::FlowKey> FcmTopK::heavy_hitters(std::uint64_t threshold) const {
  std::vector<flow::FlowKey> result;
  std::unordered_set<flow::FlowKey> seen;
  for (const auto& entry : filter_.entries()) {
    if (query(entry.key) >= threshold && seen.insert(entry.key).second) {
      result.push_back(entry.key);
    }
  }
  for (const auto& key : sketch_.heavy_hitters()) {
    if (query(key) >= threshold && seen.insert(key).second) {
      result.push_back(key);
    }
  }
  return result;
}

std::unordered_map<flow::FlowKey, std::uint64_t> FcmTopK::topk_flows() const {
  std::unordered_map<flow::FlowKey, std::uint64_t> flows;
  for (const auto& entry : filter_.entries()) {
    flows[entry.key] = entry.count;
  }
  return flows;
}

void FcmTopK::check_invariants() const {
  sketch_.check_invariants();
  filter_.check_invariants();
}

void FcmTopK::clear() {
  sketch_.clear();
  filter_.clear();
}

}  // namespace fcm::core
