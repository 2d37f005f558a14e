#include "datapath/heavy_flow_cache.h"

#include "common/contracts.h"

namespace fcm::datapath {

HeavyFlowCache::HeavyFlowCache(Options options) : options_(options) {
  FCM_REQUIRE(options_.ways >= 1, "HeavyFlowCache: ways must be >= 1");
  FCM_REQUIRE(options_.entries >= options_.ways &&
                  options_.entries % options_.ways == 0,
              "HeavyFlowCache: entries must be a positive multiple of ways");
  FCM_REQUIRE((options_.entries & (options_.entries - 1)) == 0,
              "HeavyFlowCache: entries must be a power of two");
  seed_low_ = static_cast<std::uint32_t>(options_.seed ^ (options_.seed >> 32));
  sets_ = options_.entries / options_.ways;
  table_.assign(options_.entries, Entry{});
}

HeavyFlowCache::Result HeavyFlowCache::offer(flow::FlowKey key,
                                             std::uint64_t count) {
  // FlowKey{0} doubles as the empty-slot sentinel (same convention as
  // TopKFilter): installing it would alias an empty way, so flow 0 always
  // takes the sketch path: the offer itself is demoted; nothing is lost.
  if (key.value == 0) return Result{Result::Outcome::kBypass, key, count};
  const std::size_t base = set_base(key);
  std::size_t victim = base;
  for (std::size_t way = 0; way < options_.ways; ++way) {
    Entry& entry = table_[base + way];
    if (entry.key == key) {
      entry.count += count;
      ++hits_;
      offered_units_ += count;
      return Result{Result::Outcome::kHit, {}, 0};
    }
    if (entry.key.value == 0) {
      // First empty way wins; no eviction needed.
      entry.key = key;
      entry.count = count;
      ++misses_;
      offered_units_ += count;
      return Result{Result::Outcome::kInserted, {}, 0};
    }
    if (entry.count < table_[victim].count) victim = base + way;
  }
  // Set full: displace the lightest entry. The new flow starts its exact
  // count here; the victim's exact count is handed back for demotion.
  Entry& entry = table_[victim];
  Result result{Result::Outcome::kEvicted, entry.key, entry.count};
  entry.key = key;
  entry.count = count;
  ++misses_;
  ++evictions_;
  offered_units_ += count;
  evicted_units_ += result.demote_count;
  return result;
}

std::uint64_t HeavyFlowCache::count_of(flow::FlowKey key) const {
  if (key.value == 0) return 0;
  const std::size_t base = set_base(key);
  for (std::size_t way = 0; way < options_.ways; ++way) {
    const Entry& entry = table_[base + way];
    if (entry.key == key) return entry.count;
  }
  return 0;
}

std::uint64_t HeavyFlowCache::resident_units() const {
  std::uint64_t total = 0;
  for (const Entry& entry : table_) total += entry.count;
  return total;
}

std::size_t HeavyFlowCache::resident_flows() const {
  std::size_t flows = 0;
  for (const Entry& entry : table_) flows += entry.key.value != 0 ? 1 : 0;
  return flows;
}

void HeavyFlowCache::check_invariants() const {
  FCM_ASSERT(table_.size() == options_.entries,
             "HeavyFlowCache: table size drifted from configuration");
  std::uint64_t resident = 0;
  for (const Entry& entry : table_) {
    if (entry.key.value == 0) {
      FCM_ASSERT(entry.count == 0, "HeavyFlowCache: empty slot carries count");
    } else {
      FCM_ASSERT(entry.count > 0, "HeavyFlowCache: resident flow with zero count");
      resident += entry.count;
    }
  }
  // Conservation ledger: everything accepted is either still resident or was
  // handed back to the caller for demotion. drain() keeps it balanced by
  // moving the resident units into evicted_units_; nothing resets it.
  FCM_ASSERT(offered_units_ == resident + evicted_units_,
             "HeavyFlowCache: unit ledger out of balance");
  FCM_ASSERT(hits_ + misses_ >= evictions_,
             "HeavyFlowCache: more evictions than offers");
}

CacheMetrics::CacheMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  hits_ = &registry->counter(
      "fcm_datapath_cache_hits_total", {},
      "Packets absorbed exactly by a resident heavy-flow cache entry");
  misses_ = &registry->counter(
      "fcm_datapath_cache_misses_total", {},
      "Packets that installed or displaced a heavy-flow cache entry");
  evictions_ = &registry->counter(
      "fcm_datapath_cache_evictions_total", {},
      "Flows displaced from the heavy-flow cache and demoted to the sketch");
  resident_flows_ = &registry->gauge(
      "fcm_datapath_cache_resident_flows", {},
      "Flows held exactly in the heavy-flow cache at the last publish");
}

void CacheMetrics::publish(const HeavyFlowCache& cache) {
  if (hits_ == nullptr) return;
  FCM_ASSERT(published_hits_ <= cache.hits() &&
                 published_misses_ <= cache.misses() &&
                 published_evictions_ <= cache.evictions(),
             "CacheMetrics: published counters ahead of the cache ledger");
  hits_->inc(cache.hits() - published_hits_);
  misses_->inc(cache.misses() - published_misses_);
  evictions_->inc(cache.evictions() - published_evictions_);
  resident_flows_->set(static_cast<double>(cache.resident_flows()));
  published_hits_ = cache.hits();
  published_misses_ = cache.misses();
  published_evictions_ = cache.evictions();
}

}  // namespace fcm::datapath
