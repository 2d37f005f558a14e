// HeavyFlowCache unit suite: hit/insert/evict state machine, smallest-count
// eviction, the FlowKey{0} bypass sentinel, and the conservation ledger
// (offered == resident + evicted at all times) that the differential battery
// later leans on end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/contracts.h"
#include "common/random.h"
#include "datapath/heavy_flow_cache.h"
#include "flow/flow_key.h"

namespace fcm {
namespace {

using datapath::HeavyFlowCache;
using Outcome = HeavyFlowCache::Result::Outcome;

HeavyFlowCache::Options tiny_options(std::size_t entries = 8,
                                     std::size_t ways = 2) {
  HeavyFlowCache::Options options;
  options.entries = entries;
  options.ways = ways;
  return options;
}

TEST(HeavyFlowCache, InsertThenHitAccumulatesExactly) {
  HeavyFlowCache cache(tiny_options());
  const flow::FlowKey key{42};
  const auto inserted = cache.offer(key, 3);
  const auto hit = cache.offer(key, 4);
  EXPECT_EQ(inserted.outcome, Outcome::kInserted);
  EXPECT_EQ(hit.outcome, Outcome::kHit);
  // The cache kept both offers: nothing to demote.
  EXPECT_EQ(inserted.demote_count, 0u);
  EXPECT_EQ(hit.demote_count, 0u);
  EXPECT_EQ(cache.count_of(key), 7u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.resident_flows(), 1u);
  EXPECT_EQ(cache.resident_units(), 7u);
  cache.check_invariants();
}

TEST(HeavyFlowCache, KeyZeroAlwaysBypasses) {
  HeavyFlowCache cache(tiny_options());
  const auto result = cache.offer(flow::FlowKey{0}, 5);
  EXPECT_EQ(result.outcome, Outcome::kBypass);
  // The offer itself is what the caller must demote.
  EXPECT_EQ(result.demote_key, flow::FlowKey{0});
  EXPECT_EQ(result.demote_count, 5u);
  EXPECT_EQ(cache.resident_flows(), 0u);
  EXPECT_EQ(cache.offered_units(), 0u);  // bypassed units are the caller's
  cache.check_invariants();
}

TEST(HeavyFlowCache, EvictsTheSmallestCountInTheSet) {
  // One set of 4 ways: fill it with known counts and overflow it.
  HeavyFlowCache cache(tiny_options(/*entries=*/4, /*ways=*/4));
  std::unordered_map<std::uint32_t, std::uint64_t> counts = {
      {1, 10}, {2, 2}, {3, 30}, {4, 40}};
  for (const auto& [id, count] : counts) {
    EXPECT_EQ(cache.offer(flow::FlowKey{id}, count).outcome, Outcome::kInserted);
  }
  const auto result = cache.offer(flow::FlowKey{99}, 1);
  ASSERT_EQ(result.outcome, Outcome::kEvicted);
  // The victim is the lightest resident flow (id 2, count 2).
  EXPECT_EQ(result.demote_key, flow::FlowKey{2});
  EXPECT_EQ(result.demote_count, 2u);
  EXPECT_EQ(cache.count_of(flow::FlowKey{2}), 0u);
  EXPECT_EQ(cache.count_of(flow::FlowKey{99}), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.evicted_units(), 2u);
  cache.check_invariants();
}

TEST(HeavyFlowCache, HotFlowsBecomePracticallyUnevictable) {
  HeavyFlowCache cache(tiny_options(/*entries=*/4, /*ways=*/4));
  const flow::FlowKey hot{7};
  cache.offer(hot, 1'000'000);
  // Churn a long tail of one-packet flows through the same table.
  for (std::uint32_t id = 100; id < 600; ++id) {
    cache.offer(flow::FlowKey{id}, 1);
  }
  EXPECT_EQ(cache.count_of(hot), 1'000'000u);
  cache.check_invariants();
}

TEST(HeavyFlowCache, DrainVisitsEveryResidentFlowAndEmpties) {
  HeavyFlowCache cache(tiny_options(/*entries=*/16, /*ways=*/4));
  std::uint64_t offered = 0;
  for (std::uint32_t id = 1; id <= 10; ++id) {
    cache.offer(flow::FlowKey{id}, id);
    offered += id;
  }
  const std::size_t resident_before = cache.resident_flows();
  const std::uint64_t evicted_before = cache.evicted_units();
  std::uint64_t drained = 0;
  std::size_t visited = 0;
  cache.drain([&](flow::FlowKey key, std::uint64_t count) {
    EXPECT_NE(key.value, 0u);
    EXPECT_GT(count, 0u);
    drained += count;
    ++visited;
  });
  EXPECT_EQ(visited, resident_before);
  // Drained units plus pre-drain evictions account for everything offered.
  EXPECT_EQ(drained + evicted_before, offered);
  EXPECT_EQ(cache.resident_flows(), 0u);
  EXPECT_EQ(cache.resident_units(), 0u);
  EXPECT_EQ(cache.offered_units(), cache.evicted_units());
  cache.check_invariants();
}

TEST(HeavyFlowCache, ConservationLedgerHoldsUnderChurn) {
  HeavyFlowCache cache(tiny_options(/*entries=*/32, /*ways=*/4));
  common::Xoshiro256 rng(0xcac4e);
  std::uint64_t expected_offered = 0;
  for (int i = 0; i < 50'000; ++i) {
    const auto id = static_cast<std::uint32_t>(1 + rng.next() % 500);
    const std::uint64_t count = 1 + rng.next() % 7;
    cache.offer(flow::FlowKey{id}, count);
    expected_offered += count;
    if (i % 9973 == 0) cache.check_invariants();
  }
  EXPECT_EQ(cache.offered_units(), expected_offered);
  EXPECT_EQ(cache.offered_units(),
            cache.resident_units() + cache.evicted_units());
  cache.check_invariants();
}

TEST(HeavyFlowCache, ForEachMatchesCountOf) {
  HeavyFlowCache cache(tiny_options(/*entries=*/16, /*ways=*/4));
  for (std::uint32_t id = 1; id <= 12; ++id) cache.offer(flow::FlowKey{id}, id);
  std::size_t visited = 0;
  cache.for_each([&](flow::FlowKey key, std::uint64_t count) {
    EXPECT_EQ(cache.count_of(key), count);
    ++visited;
  });
  EXPECT_EQ(visited, cache.resident_flows());
}

TEST(HeavyFlowCache, RejectsBadGeometry) {
  HeavyFlowCache::Options bad;
  bad.entries = 12;  // not a power of two
  bad.ways = 4;
  EXPECT_THROW(HeavyFlowCache{bad}, common::ContractViolation);
  bad.entries = 16;
  bad.ways = 3;  // does not divide entries
  EXPECT_THROW(HeavyFlowCache{bad}, common::ContractViolation);
  bad.entries = 0;
  bad.ways = 1;
  EXPECT_THROW(HeavyFlowCache{bad}, common::ContractViolation);
}

}  // namespace
}  // namespace fcm
