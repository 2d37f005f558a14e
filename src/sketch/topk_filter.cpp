#include "sketch/topk_filter.h"

#include <algorithm>
#include <limits>
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

std::vector<TopKFilter::MergeEviction> TopKFilter::merge(const TopKFilter& other) {
  FCM_REQUIRE(table_.size() == other.table_.size(),
              "TopKFilter::merge: mismatched entry counts (" +
                  std::to_string(table_.size()) + " vs " +
                  std::to_string(other.table_.size()) + ")");
  FCM_REQUIRE(lambda_ == other.lambda_,
              "TopKFilter::merge: mismatched eviction lambdas");
  FCM_REQUIRE(hash_.seed() == other.hash_.seed(),
              "TopKFilter::merge: filters use different hash functions");
  std::vector<MergeEviction> evictions;
  constexpr std::uint64_t kCounterMax = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < table_.size(); ++i) {
    Entry& ours = table_[i];
    const Entry& theirs = other.table_[i];
    if (theirs.key.value == 0) continue;  // nothing arrives from `other`
    if (ours.key.value == 0) {
      // Our bucket never saw a packet (first offer always installs), so the
      // incoming flow has no light-part residue on our side: copy verbatim.
      ours = theirs;
      continue;
    }
    if (ours.key == theirs.key) {
      const std::uint64_t count =
          std::min<std::uint64_t>(static_cast<std::uint64_t>(ours.count) +
                                      theirs.count,
                                  kCounterMax);
      // Clamp challenger votes below the eviction threshold: a resident
      // entry must keep dominating (check_invariants' ordering property).
      const std::uint64_t negative =
          std::min<std::uint64_t>(static_cast<std::uint64_t>(ours.negative) +
                                      theirs.negative,
                                  static_cast<std::uint64_t>(lambda_) * count - 1);
      ours.count = static_cast<std::uint32_t>(count);
      ours.negative = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(negative, kCounterMax));
      ours.has_light_part = ours.has_light_part || theirs.has_light_part;
      continue;
    }
    // Two different incumbents contend for the bucket: keep the heavier one
    // (ties keep ours), flush the loser's exact count into the backing
    // sketch. The winner may have had pass-through packets in the loser's
    // shard, so its light-part flag must be set.
    if (theirs.count > ours.count) {
      evictions.push_back({ours.key, ours.count});
      ours = theirs;
    } else {
      evictions.push_back({theirs.key, theirs.count});
    }
    ours.has_light_part = true;
  }
  FCM_CHECKED_ONLY(check_invariants());
  return evictions;
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
