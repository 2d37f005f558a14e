#include "sketch/topk_filter.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/contracts.h"

namespace fcm::sketch {

TopKFilter::TopKFilter(std::size_t entry_count, std::uint32_t eviction_lambda,
                       std::uint64_t seed)
    : hash_(common::make_hash(seed, 0)), lambda_(eviction_lambda) {
  FCM_REQUIRE(entry_count > 0, "TopKFilter: entry_count must be positive");
  FCM_REQUIRE(eviction_lambda > 0, "TopKFilter: eviction_lambda must be positive");
  table_.resize(entry_count);
}

TopKFilter::Offer TopKFilter::offer_at(std::size_t bucket, flow::FlowKey key) {
  Offer result;
  Entry& entry = table_[bucket];

  if (entry.key.value == 0) {
    entry = Entry{key, 1, 0, false};
    result.outcome = Offer::Outcome::kKept;
    return result;
  }
  if (entry.key == key) {
    ++entry.count;
    result.outcome = Offer::Outcome::kKept;
    return result;
  }
  ++entry.negative;
  if (entry.negative >= lambda_ * entry.count) {
    // Evict the incumbent: its accumulated count is flushed to the backing
    // sketch; the challenger takes the bucket. The challenger's earlier
    // packets were counted in the sketch, so its entry is flagged.
    result.outcome = Offer::Outcome::kEvicted;
    result.evicted_key = entry.key;
    result.evicted_count = entry.count;
    entry = Entry{key, 1, 0, true};
    return result;
  }
  result.outcome = Offer::Outcome::kPassThrough;
  return result;
}

std::optional<TopKFilter::QueryResult> TopKFilter::query(flow::FlowKey key) const {
  const Entry& entry = table_[hash_.index(key, table_.size())];
  if (entry.key.value == 0 || entry.key != key) return std::nullopt;
  return QueryResult{entry.count, entry.has_light_part};
}

std::vector<TopKFilter::EntryView> TopKFilter::entries() const {
  std::vector<EntryView> result;
  for (const Entry& entry : table_) {
    if (entry.key.value != 0) {
      result.push_back({entry.key, entry.count, entry.has_light_part});
    }
  }
  return result;
}

void TopKFilter::check_invariants() const {
  FCM_ASSERT(!table_.empty(), "TopKFilter: empty table");
  FCM_ASSERT(lambda_ > 0, "TopKFilter: lambda must stay positive");
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const Entry& entry = table_[i];
    if (entry.key.value == 0) {
      FCM_ASSERT(entry.count == 0 && entry.negative == 0 && !entry.has_light_part,
                 "TopKFilter: empty bucket " + std::to_string(i) +
                     " carries votes or flags");
      continue;
    }
    FCM_ASSERT(entry.count >= 1,
               "TopKFilter: occupied bucket " + std::to_string(i) +
                   " has zero positive votes");
    // offer() evicts the moment negative >= lambda * count, so a resident
    // entry always satisfies the strict inequality (same 32-bit arithmetic
    // as the eviction test).
    FCM_ASSERT(entry.negative < lambda_ * entry.count,
               "TopKFilter: bucket " + std::to_string(i) +
                   " survived past the eviction threshold");
  }
}

void TopKFilter::clear() {
  std::fill(table_.begin(), table_.end(), Entry{});
}

}  // namespace fcm::sketch
