// Single-level Top-K filter: the vote-based eviction hash table from
// ElasticSketch's heavy part [Yang et al., SIGCOMM 2018], restricted to one
// level — exactly what the paper deploys in front of FCM ("FCM+TopK", §6,
// §7.2: "a single level of Top-K algorithm with 4K entries") and what its
// Tofino implementation approximates ElasticSketch with (§8.1).
// The vote table is order-dependent, so two filters have no exact merge;
// FCM+TopK (core::FcmTopK) stays a single-switch structure.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/hash.h"
#include "flow/flow_key.h"

namespace fcm::sketch {

class TopKFilter {
 public:
  // Result of offering one packet to the filter.
  struct Offer {
    enum class Outcome {
      kKept,         // packet absorbed by a heavy-part entry
      kPassThrough,  // packet must go to the backing sketch
      kEvicted,      // packet installed a new entry; old entry was evicted
    };
    Outcome outcome = Outcome::kPassThrough;
    flow::FlowKey evicted_key{};         // valid when outcome == kEvicted
    std::uint64_t evicted_count = 0;     // count to flush into the sketch
  };

  struct QueryResult {
    std::uint64_t count = 0;
    bool has_light_part = false;  // some of this flow's traffic passed through
  };

  // `entry_count` buckets; `eviction_lambda` is ElasticSketch's vote
  // threshold (evict when negative votes >= lambda * positive votes).
  explicit TopKFilter(std::size_t entry_count, std::uint32_t eviction_lambda = 8,
                      std::uint64_t seed = 0x70b4);

  Offer offer(flow::FlowKey key) {
    // FlowKey{0} doubles as the empty-bucket sentinel (mirroring the
    // data-plane register encoding, where an all-zero entry means "free").
    // Installing it would make the bucket indistinguishable from empty:
    // query() would miss it and the sketch never saw its packets — an
    // underestimate (caught by test_properties' never-underestimate
    // property). Route flow 0 to the backing sketch instead.
    if (key.value == 0) return Offer{};
    return offer_at(hash_.index(key, table_.size()), key);
  }

  // Heavy-part lookup; nullopt when the flow holds no entry.
  std::optional<QueryResult> query(flow::FlowKey key) const;

  // All resident flows (key, count, has_light_part).
  struct EntryView {
    flow::FlowKey key;
    std::uint64_t count;
    bool has_light_part;
  };
  std::vector<EntryView> entries() const;

  // 8 bytes per entry (key + count), matching the paper's accounting of
  // "key-value entries"; votes/flags ride along as in the hardware tables.
  std::size_t memory_bytes() const { return table_.size() * 8; }
  std::size_t entry_count() const { return table_.size(); }

  // Deep invariants of the vote table (the heavy-part ordering property):
  //   - empty buckets carry no votes and no light-part flag;
  //   - an occupied bucket's positive votes are >= 1 (installation counts
  //     the installing packet);
  //   - negative votes stay strictly below the eviction threshold
  //     lambda * count (offer() evicts the moment the threshold is reached,
  //     so a resident entry always dominates its challengers).
  void check_invariants() const;

  void clear();

 private:
  // The vote/eviction state machine for one non-sentinel key whose bucket
  // index is already known (offer() hashes it).
  Offer offer_at(std::size_t bucket, flow::FlowKey key);

  struct Entry {
    flow::FlowKey key{};          // key.value == 0 means empty
    std::uint32_t count = 0;      // positive votes
    std::uint32_t negative = 0;   // negative votes
    bool has_light_part = false;
  };

  common::SeededHash hash_;
  std::uint32_t lambda_;
  std::vector<Entry> table_;
};

}  // namespace fcm::sketch
