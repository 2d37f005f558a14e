// Differential battery for the heavy-flow cache (DESIGN.md §12): a cache-on
// pipeline against an identically-seeded cache-off pipeline over the same
// trace. FCM counters are order-independent sums, so folding the cache into
// the sketch must reproduce the cache-off state BIT FOR BIT (compared via
// WireCodec serialization, the strictest equality the repo has); the live
// combined view must satisfy the pointwise sandwich
//
//     truth(f)  <=  estimate_cache_on(f)  <=  estimate_cache_off(f)
//
// (left side: the never-underestimate guarantee survives the cache; right
// side: the cache can only remove error, not add it). The sharded half runs
// the same differential through ShardedFcmFramework at N in {1, 4} shards —
// CI repeats it under TSan, so the driver-side cache's epoch drain is also
// raced against the coordinator.
//
// Scope of the bit-exact claim: COUNTER state. The on-path heavy-hitter
// ledger records flows at the moment their own add crosses T, and the cache
// reschedules those adds (demotions + epoch folds), so the ledger is
// trajectory-dependent by construction. The bit-exact comparisons therefore
// run with on-path detection disabled (threshold 0 — the serialized bytes
// then cover every counter in every tree), while threshold-T runs pin the
// guarantees that survive rescheduling: identical per-flow estimates, no
// false-negative heavy hitters vs ground truth, and every cache-on false
// positive being a flow the sketch-only pipeline overestimates past T too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "agg/wire.h"
#include "common/random.h"
#include "datapath/cached_framework.h"
#include "flow/flow_key.h"
#include "flow/trace.h"
#include "framework/fcm_framework.h"
#include "obs/metrics_registry.h"
#include "property_harness.h"
#include "runtime/sharded_framework.h"

namespace fcm {
namespace {

using agg::WireCodec;
using datapath::CachedFramework;
using framework::FcmFramework;
using proptest::small_fcm_config;

constexpr std::uint64_t kSeed = 0xd1ff;
constexpr std::uint64_t kThreshold = 64;

FcmFramework::Options plain_options(std::uint64_t threshold = kThreshold,
                                    std::uint64_t seed = kSeed) {
  FcmFramework::Options options;
  options.fcm = small_fcm_config(seed);
  options.heavy_hitter_threshold = threshold;
  options.metrics = nullptr;
  return options;
}

CachedFramework::Options cached_options(std::uint64_t threshold = kThreshold,
                                        std::uint64_t seed = kSeed) {
  CachedFramework::Options options;
  options.framework = plain_options(threshold, seed);
  options.cache.entries = 256;  // small enough to force eviction churn
  options.cache.ways = 4;
  options.metrics = nullptr;
  return options;
}

// Zipf-skewed key stream: a few very hot flows (cache hits), a churning tail
// (evictions + demotions).
std::vector<flow::FlowKey> zipf_keys(std::uint64_t seed, std::size_t length,
                                     std::size_t universe, double alpha = 1.2) {
  common::Xoshiro256 rng(seed);
  common::ZipfSampler zipf(universe, alpha);
  std::vector<flow::FlowKey> keys;
  keys.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    keys.push_back(flow::FlowKey{static_cast<std::uint32_t>(zipf.sample(rng))});
  }
  return keys;
}

std::unordered_map<flow::FlowKey, std::uint64_t> exact_counts(
    const std::vector<flow::FlowKey>& keys) {
  std::unordered_map<flow::FlowKey, std::uint64_t> truth;
  for (const flow::FlowKey key : keys) ++truth[key];
  return truth;
}

// --- serial: bit-exactness --------------------------------------------------

TEST(DatapathDifferential, SnapshotIsBitExactWithCacheOff) {
  const std::vector<flow::FlowKey> keys = zipf_keys(kSeed, 60'000, 2'000);
  // Threshold 0: the serialized bytes cover every counter of every tree with
  // no trajectory-dependent HH ledger riding along (see file header).
  CachedFramework cached(cached_options(/*threshold=*/0));
  FcmFramework plain(plain_options(/*threshold=*/0));
  for (const flow::FlowKey key : keys) {
    cached.process(key);
    plain.process(key);
  }
  EXPECT_GT(cached.cache().hits(), 0u);
  EXPECT_GT(cached.cache().evictions(), 0u);
  const FcmFramework folded = cached.snapshot();
  // The strongest equality available: identical serialized bytes.
  EXPECT_EQ(WireCodec::serialize(folded), WireCodec::serialize(plain));
  cached.check_invariants();
}

TEST(DatapathDifferential, SnapshotEstimatesMatchCacheOffAtThreshold) {
  // With on-path detection enabled the counter state is still identical —
  // every per-flow estimate of the folded snapshot equals the cache-off run.
  const std::vector<flow::FlowKey> keys = zipf_keys(kSeed, 60'000, 2'000);
  CachedFramework cached(cached_options());
  FcmFramework plain(plain_options());
  for (const flow::FlowKey key : keys) {
    cached.process(key);
    plain.process(key);
  }
  const FcmFramework folded = cached.snapshot();
  for (std::uint32_t id = 1; id <= 2'000; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(folded.flow_size(key), plain.flow_size(key)) << "flow " << id;
  }
}

TEST(DatapathDifferential, SnapshotIsBitExactInByteMode) {
  FcmFramework::Options plain_opts = plain_options(/*threshold=*/0);
  plain_opts.count_mode = FcmFramework::CountMode::kBytes;
  CachedFramework::Options cached_opts = cached_options(/*threshold=*/0);
  cached_opts.framework = plain_opts;

  CachedFramework cached(cached_opts);
  FcmFramework plain(plain_opts);
  common::Xoshiro256 rng(kSeed);
  common::ZipfSampler zipf(1'000, 1.2);
  std::uint64_t total_bytes = 0;
  for (int i = 0; i < 40'000; ++i) {
    flow::Packet packet;
    packet.key = flow::FlowKey{static_cast<std::uint32_t>(zipf.sample(rng))};
    packet.bytes = static_cast<std::uint32_t>(64 + rng.next() % 1400);
    cached.process(packet);
    plain.process(packet);
    total_bytes += packet.bytes;
  }
  EXPECT_EQ(WireCodec::serialize(cached.snapshot()), WireCodec::serialize(plain));
  // Totals conserved exactly: every offered byte is resident or demoted.
  EXPECT_GT(cached.cache().offered_units(), 0u);
  EXPECT_EQ(cached.cache().resident_units() + cached.cache().evicted_units(),
            cached.cache().offered_units());
  EXPECT_GT(total_bytes, 0u);
}

TEST(DatapathDifferential, BatchAndSpanPathsMatchScalarPath) {
  const std::vector<flow::FlowKey> keys = zipf_keys(kSeed, 20'000, 1'000);
  CachedFramework scalar(cached_options());
  CachedFramework batched(cached_options());
  for (const flow::FlowKey key : keys) scalar.process(key);
  batched.process_batch(keys);
  EXPECT_EQ(WireCodec::serialize(scalar.snapshot()),
            WireCodec::serialize(batched.snapshot()));
}

// --- serial: the pointwise sandwich ----------------------------------------

TEST(DatapathDifferential, LiveViewNeverUnderestimatesAndNeverExceedsCacheOff) {
  const std::vector<flow::FlowKey> keys = zipf_keys(kSeed, 60'000, 2'000);
  CachedFramework cached(cached_options());
  FcmFramework plain(plain_options());
  for (const flow::FlowKey key : keys) {
    cached.process(key);
    plain.process(key);
  }
  for (const auto& [key, truth] : exact_counts(keys)) {
    const std::uint64_t on = cached.flow_size(key);
    const std::uint64_t off = plain.flow_size(key);
    ASSERT_GE(on, truth) << "cache-on underestimates flow " << key.value;
    ASSERT_LE(on, off) << "cache-on worse than cache-off for flow "
                       << key.value;
  }
}

TEST(DatapathDifferential, HeavyHitterSetIsNestedBetweenTruthAndCacheOff) {
  const std::vector<flow::FlowKey> keys = zipf_keys(kSeed, 60'000, 2'000);
  CachedFramework cached(cached_options());
  FcmFramework plain(plain_options());
  for (const flow::FlowKey key : keys) {
    cached.process(key);
    plain.process(key);
  }
  const auto truth = exact_counts(keys);
  const std::vector<flow::FlowKey> on_list = cached.heavy_hitters();
  const std::unordered_set<flow::FlowKey> on(on_list.begin(), on_list.end());
  const std::vector<flow::FlowKey> off_list = plain.heavy_hitters();
  const std::unordered_set<flow::FlowKey> off(off_list.begin(), off_list.end());
  // No false negatives: every truly heavy flow is reported with the cache on.
  std::size_t truly_heavy = 0;
  for (const auto& [key, count] : truth) {
    if (count >= kThreshold) {
      ++truly_heavy;
      EXPECT_TRUE(on.contains(key)) << "missed true HH " << key.value;
    }
  }
  ASSERT_GT(truly_heavy, 5u);  // the workload actually has heavy flows
  // No invented heavy hitters: every cache-on report is backed by a combined
  // estimate >= T, and any false positive is a flow the sketch-only pipeline
  // ALSO overestimates past T (the error is inherited, never introduced —
  // est_off >= est_on >= T pointwise).
  for (const flow::FlowKey key : on_list) {
    EXPECT_GE(cached.flow_size(key), kThreshold) << "flow " << key.value;
    const auto truth_it = truth.find(key);
    const std::uint64_t exact =
        truth_it == truth.end() ? 0 : truth_it->second;
    if (exact < kThreshold) {
      EXPECT_GE(plain.flow_size(key), kThreshold)
          << "cache-on invented HH " << key.value
          << " that cache-off does not even overestimate";
    }
  }
  // And the cache-off set misses nothing truly heavy either, so the two
  // pipelines agree on every flow that matters.
  for (const auto& [key, count] : truth) {
    if (count >= kThreshold) {
      EXPECT_TRUE(off.contains(key));
    }
  }
}

TEST(DatapathDifferential, TopKVariantKeepsTheNeverUnderestimateGuarantee) {
  // FCM+TopK's filter state is order-dependent, so no bit-exact claim — the
  // demotion path must still never let a weighted add create underestimates.
  CachedFramework::Options options = cached_options();
  options.framework.topk_entries = 64;
  CachedFramework cached(options);
  const std::vector<flow::FlowKey> keys = zipf_keys(kSeed, 60'000, 2'000);
  for (const flow::FlowKey key : keys) cached.process(key);
  for (const auto& [key, truth] : exact_counts(keys)) {
    ASSERT_GE(cached.flow_size(key), truth)
        << "TopK cache-on underestimates flow " << key.value;
  }
}

TEST(DatapathDifferential, ResetRestoresEmptyState) {
  CachedFramework cached(cached_options());
  for (const flow::FlowKey key : zipf_keys(kSeed, 5'000, 500)) {
    cached.process(key);
  }
  cached.reset();
  EXPECT_EQ(cached.cache().resident_flows(), 0u);
  CachedFramework fresh(cached_options());
  EXPECT_EQ(WireCodec::serialize(cached.snapshot()),
            WireCodec::serialize(fresh.snapshot()));
}

// The serial host's fcm_datapath_cache_* series: across snapshot() and
// reset(), every nonzero key offered is one registry hit or miss (key 0
// bypasses the cache), and the resident gauge reports the cache's own count.
TEST(DatapathDifferential, CacheSeriesCoverEveryOfferedKeyAcrossReset) {
  obs::MetricsRegistry registry;
  CachedFramework::Options options = cached_options();
  options.metrics = &registry;
  options.metrics_instance = "serial";
  CachedFramework cached(options);

  std::uint64_t nonzero_offered = 0;
  const auto feed = [&](std::vector<flow::FlowKey> keys) {
    keys.push_back(flow::FlowKey{0});
    for (const flow::FlowKey key : keys) {
      cached.process(key);
      nonzero_offered += key.value != 0 ? 1 : 0;
    }
  };
  feed(zipf_keys(kSeed, 20'000, 2'000));
  EXPECT_GT(cached.snapshot().flow_size(flow::FlowKey{1}), 0u);
  cached.reset();
  feed(zipf_keys(kSeed + 1, 20'000, 2'000));
  EXPECT_GT(cached.snapshot().flow_size(flow::FlowKey{1}), 0u);

  const std::vector<obs::MetricLabel> labels = {{"instance", "serial"}};
  const std::uint64_t hits =
      registry.counter("fcm_datapath_cache_hits_total", labels).value();
  const std::uint64_t misses =
      registry.counter("fcm_datapath_cache_misses_total", labels).value();
  EXPECT_EQ(hits + misses, nonzero_offered);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(cached.cache().resident_flows(), 0u);
  EXPECT_EQ(
      registry.gauge("fcm_datapath_cache_resident_flows", labels).value(),
      static_cast<double>(cached.cache().resident_flows()));
}

// --- sharded runtime --------------------------------------------------------

runtime::ShardedFcmFramework::Options sharded_options(
    std::size_t shards, std::size_t cache_entries,
    std::uint64_t threshold = 0) {
  runtime::ShardedFcmFramework::Options options;
  options.framework = plain_options(threshold);
  options.shard_count = shards;
  options.cache_entries = cache_entries;
  options.metrics = nullptr;
  return options;
}

class ShardedDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedDifferential, MergedEpochsAreBitExactWithCacheOff) {
  const std::size_t shards = GetParam();
  runtime::ShardedFcmFramework cache_on(sharded_options(shards, 1024));
  runtime::ShardedFcmFramework cache_off(sharded_options(shards, 0));

  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::vector<flow::FlowKey> keys =
        zipf_keys(kSeed + epoch, 40'000, 2'000);
    cache_on.ingest(std::span<const flow::FlowKey>(keys));
    cache_off.ingest(std::span<const flow::FlowKey>(keys));
    const auto report_on = cache_on.rotate();
    const auto report_off = cache_off.rotate();
    // Totals conserved exactly: the epoch drain hands every cached unit back
    // before the markers go in, so per-epoch packet counts agree.
    EXPECT_EQ(report_on.packets, report_off.packets) << "epoch " << epoch;
    EXPECT_EQ(report_on.packets, keys.size()) << "epoch " << epoch;
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
  runtime::ShardedFcmFramework cache_on(
      sharded_options(shards, 1024, kThreshold));
  runtime::ShardedFcmFramework cache_off(
      sharded_options(shards, 0, kThreshold));
  const std::vector<flow::FlowKey> keys = zipf_keys(kSeed, 40'000, 2'000);
  cache_on.ingest(std::span<const flow::FlowKey>(keys));
  cache_off.ingest(std::span<const flow::FlowKey>(keys));
  const auto report_on = cache_on.rotate();
  cache_off.rotate();
  // Counter state is identical even with on-path detection enabled: every
  // merged per-flow estimate agrees.
  for (std::uint32_t id = 1; id <= 2'000; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(cache_on.flow_size(key), cache_off.flow_size(key))
        << "flow " << id;
  }
  // The epoch drain demotes every cached unit before the markers, so the
  // re-qualified report misses no truly heavy flow.
  const std::unordered_set<flow::FlowKey> on(report_on.heavy_hitters.begin(),
                                             report_on.heavy_hitters.end());
  std::size_t truly_heavy = 0;
  for (const auto& [key, count] : exact_counts(keys)) {
    if (count >= kThreshold) {
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
  runtime::ShardedFcmFramework cache_on(sharded_options(shards, 512));
  const std::vector<flow::FlowKey> keys = zipf_keys(kSeed, 40'000, 1'500);
  cache_on.ingest(std::span<const flow::FlowKey>(keys));
  cache_on.rotate();
  for (const auto& [key, truth] : exact_counts(keys)) {
    ASSERT_GE(cache_on.flow_size(key), truth)
        << "sharded cache-on underestimates flow " << key.value;
  }
  cache_on.stop();
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedDifferential,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

}  // namespace
}  // namespace fcm
