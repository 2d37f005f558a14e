// Differential battery for the heavy-flow cache (DESIGN.md §12): the sharded
// runtime with its driver-side cache on against an identically-seeded
// cache-off runtime over the same byte-mode packets, at N in {1, 4} shards.
// The cache runs only in byte-count mode, so every case counts bytes. FCM
// counters are order-independent sums, so the epoch drain must reproduce the
// cache-off state BIT FOR BIT (compared via WireCodec serialization, the
// strictest equality the repo has), and no flow may be underestimated after
// rotation. CI repeats the battery under TSan, so the driver-side cache's
// epoch drain is also raced against the coordinator.
//
// Scope of the bit-exact claim: COUNTER state. The on-path heavy-hitter
// ledger records flows at the moment their own add crosses T, and the cache
// reschedules those adds (demotions + epoch drains), so the ledger is
// trajectory-dependent by construction. The bit-exact comparisons therefore
// run with on-path detection disabled (threshold 0 — the serialized bytes
// then cover every counter in every tree), while threshold-T runs pin the
// guarantees that survive rescheduling: identical per-flow estimates and no
// false-negative heavy hitters vs ground truth.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "agg/wire.h"
#include "common/contracts.h"
#include "common/random.h"
#include "flow/flow_key.h"
#include "flow/packet.h"
#include "framework/fcm_framework.h"
#include "property_harness.h"
#include "runtime/sharded_framework.h"

namespace fcm {
namespace {

using agg::WireCodec;
using framework::FcmFramework;
using proptest::small_fcm_config;
using runtime::ShardedFcmFramework;

constexpr std::uint64_t kSeed = 0xd1ff;
// Heavy-hitter threshold in bytes: about 70 average-sized packets.
constexpr std::uint64_t kThreshold = 50'000;

// Zipf-skewed packet stream: a few very hot flows (cache hits), a churning
// tail (evictions + demotions), 64-1463 bytes per packet.
std::vector<flow::Packet> zipf_packets(std::uint64_t seed, std::size_t length,
                                       std::size_t universe,
                                       double alpha = 1.2) {
  common::Xoshiro256 rng(seed);
  common::ZipfSampler zipf(universe, alpha);
  std::vector<flow::Packet> packets;
  packets.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    flow::Packet packet;
    packet.key = flow::FlowKey{static_cast<std::uint32_t>(zipf.sample(rng))};
    packet.bytes = static_cast<std::uint32_t>(64 + rng.next() % 1400);
    packets.push_back(packet);
  }
  return packets;
}

std::unordered_map<flow::FlowKey, std::uint64_t> exact_bytes(
    const std::vector<flow::Packet>& packets) {
  std::unordered_map<flow::FlowKey, std::uint64_t> truth;
  for (const flow::Packet& packet : packets) truth[packet.key] += packet.bytes;
  return truth;
}

std::uint64_t total_bytes(const std::vector<flow::Packet>& packets) {
  std::uint64_t total = 0;
  for (const flow::Packet& packet : packets) total += packet.bytes;
  return total;
}

ShardedFcmFramework::Options sharded_options(std::size_t shards,
                                             std::size_t cache_entries,
                                             std::uint64_t threshold = 0) {
  ShardedFcmFramework::Options options;
  options.framework.fcm = small_fcm_config(kSeed);
  options.framework.count_mode = FcmFramework::CountMode::kBytes;
  options.framework.heavy_hitter_threshold = threshold;
  options.shard_count = shards;
  options.cache_entries = cache_entries;
  options.metrics = nullptr;
  return options;
}

class ShardedDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedDifferential, MergedEpochsAreBitExactWithCacheOff) {
  const std::size_t shards = GetParam();
  ShardedFcmFramework cache_on(sharded_options(shards, 1024));
  ShardedFcmFramework cache_off(sharded_options(shards, 0));

  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::vector<flow::Packet> packets =
        zipf_packets(kSeed + epoch, 40'000, 2'000);
    cache_on.ingest(std::span<const flow::Packet>(packets));
    cache_off.ingest(std::span<const flow::Packet>(packets));
    const auto report_on = cache_on.rotate();
    const auto report_off = cache_off.rotate();
    // Totals conserved exactly: the epoch drain hands every cached byte back
    // before the markers go in, so per-epoch byte counts agree.
    EXPECT_EQ(report_on.bytes, report_off.bytes) << "epoch " << epoch;
    EXPECT_EQ(report_on.bytes, total_bytes(packets)) << "epoch " << epoch;
    // The cache absorbed hits: its demotions reach the shards as fewer pairs
    // than there were packets.
    EXPECT_EQ(report_off.packets, packets.size()) << "epoch " << epoch;
    EXPECT_LT(report_on.packets, report_off.packets) << "epoch " << epoch;
    // And the merged sketch state is identical, byte for byte (threshold 0:
    // pure counter state, no trajectory-dependent HH ledger).
    EXPECT_EQ(WireCodec::serialize(cache_on.merged_epoch()),
              WireCodec::serialize(cache_off.merged_epoch()))
        << "epoch " << epoch;
  }
  cache_on.stop();
  cache_off.stop();
}

TEST_P(ShardedDifferential, ThresholdRunsAgreeOnEstimatesAndTrueHeavyFlows) {
  const std::size_t shards = GetParam();
  ShardedFcmFramework cache_on(sharded_options(shards, 1024, kThreshold));
  ShardedFcmFramework cache_off(sharded_options(shards, 0, kThreshold));
  const std::vector<flow::Packet> packets = zipf_packets(kSeed, 40'000, 2'000);
  cache_on.ingest(std::span<const flow::Packet>(packets));
  cache_off.ingest(std::span<const flow::Packet>(packets));
  const auto report_on = cache_on.rotate();
  cache_off.rotate();
  // Counter state is identical even with on-path detection enabled: every
  // merged per-flow estimate agrees.
  for (std::uint32_t id = 1; id <= 2'000; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(cache_on.flow_size(key), cache_off.flow_size(key))
        << "flow " << id;
  }
  // The epoch drain demotes every cached byte before the markers, so the
  // re-qualified report misses no truly heavy flow.
  const std::unordered_set<flow::FlowKey> on(report_on.heavy_hitters.begin(),
                                             report_on.heavy_hitters.end());
  std::size_t truly_heavy = 0;
  for (const auto& [key, bytes] : exact_bytes(packets)) {
    if (bytes >= kThreshold) {
      ++truly_heavy;
      EXPECT_TRUE(on.contains(key)) << "missed true HH " << key.value;
    }
  }
  EXPECT_GT(truly_heavy, 5u);
  // Every report clears the bar against the merged (identical) counters.
  for (const flow::FlowKey key : report_on.heavy_hitters) {
    EXPECT_GE(cache_on.flow_size(key), kThreshold) << "flow " << key.value;
  }
  cache_on.stop();
  cache_off.stop();
}

TEST_P(ShardedDifferential, FlowSizeNeverUnderestimatesAfterRotation) {
  const std::size_t shards = GetParam();
  ShardedFcmFramework cache_on(sharded_options(shards, 512));
  const std::vector<flow::Packet> packets = zipf_packets(kSeed, 40'000, 1'500);
  cache_on.ingest(std::span<const flow::Packet>(packets));
  cache_on.rotate();
  for (const auto& [key, truth] : exact_bytes(packets)) {
    ASSERT_GE(cache_on.flow_size(key), truth)
        << "sharded cache-on underestimates flow " << key.value;
  }
  cache_on.stop();
}

// Per-item ingest(Packet) and span ingest run the same cache offers in the
// same order, so their merged epochs serialize identically — heavy-hitter
// ledger included.
TEST_P(ShardedDifferential, PerItemIngestMatchesSpanIngest) {
  const std::size_t shards = GetParam();
  ShardedFcmFramework per_item(sharded_options(shards, 256, kThreshold));
  ShardedFcmFramework spans(sharded_options(shards, 256, kThreshold));
  const std::vector<flow::Packet> packets = zipf_packets(kSeed, 20'000, 1'000);
  for (const flow::Packet& packet : packets) per_item.ingest(packet);
  spans.ingest(std::span<const flow::Packet>(packets));
  const auto report_item = per_item.rotate();
  const auto report_span = spans.rotate();
  EXPECT_EQ(report_item.packets, report_span.packets);
  EXPECT_EQ(report_item.bytes, report_span.bytes);
  EXPECT_EQ(WireCodec::serialize(per_item.merged_epoch()),
            WireCodec::serialize(spans.merged_epoch()));
  per_item.stop();
  spans.stop();
}

// FCM+TopK's filter state is order-dependent, so no bit-exact claim; a small
// 64-entry filter churns through evict-and-flush on every shard and must
// still never underestimate. At 4 shards block rotation splits every flow
// with more than one block of packets, so the hot flows reach the filter
// merge from several shards. TopK counts packets only, so the byte-mode
// cache can never front it: asking for both is a contract violation.
TEST_P(ShardedDifferential, TopKNeverUnderestimatesAndTakesNoCache) {
  const std::size_t shards = GetParam();
  ShardedFcmFramework::Options options = sharded_options(shards, 0, 200);
  options.framework.count_mode = FcmFramework::CountMode::kPackets;
  options.framework.topk_entries = 64;
  {
    ShardedFcmFramework::Options cached = options;
    cached.cache_entries = 256;
    EXPECT_THROW(ShardedFcmFramework{cached}, common::ContractViolation);
  }
  ShardedFcmFramework topk(options);
  const std::vector<flow::Packet> packets = zipf_packets(kSeed, 40'000, 2'000);
  std::unordered_map<flow::FlowKey, std::uint64_t> truth;
  for (const flow::Packet& packet : packets) {
    topk.ingest(packet.key);
    ++truth[packet.key];
  }
  topk.rotate();
  for (const auto& [key, count] : truth) {
    ASSERT_GE(topk.flow_size(key), count)
        << "TopK underestimates flow " << key.value;
  }
  topk.stop();
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedDifferential,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

}  // namespace
}  // namespace fcm
