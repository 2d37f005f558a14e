// Bit-exactness of the batched ingest kernel (DESIGN.md §9).
//
// Every batch entry point added for the hot path — SeededHash::index_batch,
// FcmTree::index_block/apply_block, FcmSketch::add_batch,
// TopKFilter::offer_batch via FcmTopK::add_batch, FcmFramework::process_batch
// and the span overloads, and ShardedFcmFramework::ingest(span) — must leave
// EXACTLY the state the scalar per-packet path leaves: every tree node, the
// promotion counters, TopK vote-table entries, heavy-hitter sets, and the
// per-key estimates. Tolerances are zero throughout; any divergence means the
// fast path changed semantics, not just speed.
//
// Coverage: batch sizes {1, 7, 64, 1000} (below/at/above the kBatchBlock
// stride, odd tails included), duplicate keys within one batch (carry and
// eviction ordering), and batches interleaved with rotate_async() epoch
// markers on the sharded runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/simd_dispatch.h"
#include "fcm/fcm_sketch.h"
#include "fcm/fcm_topk.h"
#include "fcm/fcm_tree.h"
#include "flow/flow_key.h"
#include "flow/packet.h"
#include "framework/fcm_framework.h"
#include "runtime/sharded_framework.h"

namespace {

using fcm::core::FcmConfig;
using fcm::core::FcmSketch;
using fcm::core::FcmTopK;
using fcm::core::FcmTree;
using fcm::flow::FlowKey;
using fcm::flow::Packet;
using fcm::framework::FcmFramework;
using fcm::runtime::ShardedFcmFramework;

// The batch sizes the ISSUE pins: below / at / well above the block stride,
// with odd tails (1000 = 15 * 64 + 40).
constexpr std::size_t kBatchSizes[] = {1, 7, 64, 1000};

// Small multi-level geometry; tiny leaf stage (8-bit) so fixed traces push
// plenty of keys through the overflow slow path, exercising the fast/slow
// boundary the batch kernel specializes.
FcmConfig small_config() {
  FcmConfig config;
  config.tree_count = 2;
  config.k = 8;
  config.stage_bits = {8, 16, 32};
  config.leaf_count = 2048;
  config.seed = 0x5555aaaa;
  return config;
}

// Deterministic skewed key stream: few hot keys (lots of duplicates and
// overflow carries), many cold ones.
std::vector<FlowKey> skewed_keys(std::size_t n, std::uint64_t seed,
                                 std::size_t distinct = 256) {
  std::mt19937_64 rng(seed);
  std::vector<FlowKey> pool;
  pool.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    pool.push_back(FlowKey{static_cast<std::uint32_t>(rng()) | 1u});
  }
  std::vector<double> weights(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  std::discrete_distribution<std::size_t> pick(weights.begin(), weights.end());
  std::vector<FlowKey> keys;
  keys.reserve(n);
  for (std::size_t p = 0; p < n; ++p) keys.push_back(pool[pick(rng)]);
  return keys;
}

// Drives FcmTree's batched kernel the way FcmSketch::add_batch does for
// each tree: index_block then apply_block, one kBatchBlock block at a time.
// An empty `min_estimates` takes apply_block's no-consumer path.
void tree_add_batch(FcmTree& tree, std::span<const FlowKey> keys,
                    std::span<std::uint64_t> min_estimates) {
  constexpr std::size_t kBlock = fcm::common::kBatchBlock;
  std::uint32_t idx[kBlock];
  for (std::size_t base = 0; base < keys.size(); base += kBlock) {
    const std::size_t n = std::min(kBlock, keys.size() - base);
    tree.index_block(keys.subspan(base, n), std::span<std::uint32_t>(idx, n));
    tree.apply_block(std::span<const std::uint32_t>(idx, n),
                     min_estimates.empty() ? min_estimates
                                           : min_estimates.subspan(base, n));
  }
}

// Every stored node of every stage of every tree.
void expect_trees_identical(const FcmSketch& a, const FcmSketch& b) {
  ASSERT_EQ(a.tree_count(), b.tree_count());
  for (std::size_t t = 0; t < a.tree_count(); ++t) {
    for (std::size_t l = 1; l <= a.config().stage_count(); ++l) {
      const auto sa = a.tree(t).stage(l);
      const auto sb = b.tree(t).stage(l);
      ASSERT_EQ(sa.size(), sb.size());
      for (std::size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(sa[i], sb[i]) << "tree " << t << " stage " << l << " node " << i;
      }
    }
  }
}

// Trees plus the promotion telemetry and the raw heavy-hitter set — the
// strongest equality the sketch exposes. Right for scalar-vs-batch on ONE
// structure; the sharded runtime's merged epochs re-qualify heavy hitters
// (their trees and promotion tallies are exact), so those comparisons use
// expect_trees_identical directly.
void expect_sketch_identical(const FcmSketch& a, const FcmSketch& b) {
  expect_trees_identical(a, b);
  for (std::size_t t = 0; t < a.tree_count(); ++t) {
    EXPECT_EQ(a.tree(t).overflow_promotion_count(),
              b.tree(t).overflow_promotion_count())
        << "tree " << t << " promotion counter diverged";
  }
  EXPECT_EQ(a.heavy_hitters(), b.heavy_hitters());
}

// --- hash layer --------------------------------------------------------------

TEST(BatchEquivalence, IndexBatchMatchesScalarIndex) {
  const fcm::common::SeededHash hash(0xfeedf00d);
  const auto keys = skewed_keys(1000, 1);
  std::vector<std::size_t> batch(keys.size());
  for (const std::size_t width : {1ul, 7ul, 2048ul, 600000ul}) {
    hash.index_batch(std::span<const FlowKey>(keys), width,
                     std::span<std::size_t>(batch));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(batch[i], hash.index(keys[i], width)) << "width " << width;
    }
  }
}

TEST(BatchEquivalence, InlineU32HashMatchesGeneralBob) {
  // The inline 4-byte specialization must stay bit-identical to the
  // out-of-line lookup3 path the scalar code used to take.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint32_t value = static_cast<std::uint32_t>(rng());
    const std::uint32_t seed = static_cast<std::uint32_t>(rng());
    const auto bytes = std::as_bytes(std::span<const std::uint32_t, 1>{&value, 1});
    ASSERT_EQ(fcm::common::bob_hash_u32(value, seed),
              fcm::common::bob_hash(bytes, seed));
  }
}

// --- FcmTree -----------------------------------------------------------------

TEST(BatchEquivalence, TreeBatchMatchesScalarAdds) {
  for (const std::size_t n : kBatchSizes) {
    const auto keys = skewed_keys(n, 42 + n);
    FcmTree scalar(small_config(), fcm::common::SeededHash(0xabc));
    FcmTree batched(small_config(), fcm::common::SeededHash(0xabc));

    std::vector<std::uint64_t> scalar_estimates;
    scalar_estimates.reserve(n);
    for (const FlowKey key : keys) scalar_estimates.push_back(scalar.add(key));

    std::vector<std::uint64_t> batch_estimates(
        n, std::numeric_limits<std::uint64_t>::max());
    tree_add_batch(batched, std::span<const FlowKey>(keys),
                   std::span<std::uint64_t>(batch_estimates));

    for (std::size_t l = 1; l <= small_config().stage_count(); ++l) {
      const auto sa = scalar.stage(l);
      const auto sb = batched.stage(l);
      for (std::size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(sa[i], sb[i]) << "n=" << n << " stage " << l << " node " << i;
      }
    }
    EXPECT_EQ(scalar.overflow_promotion_count(),
              batched.overflow_promotion_count());
    // min_estimates seeded with UINT64_MAX collapse to the per-key estimate.
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batch_estimates[i], scalar_estimates[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(BatchEquivalence, TreeBatchDuplicateHeavyKey) {
  // One key repeated through a whole batch: every increment after the first
  // stage-1 saturation must take the slow carry path, and later duplicates
  // in the SAME block must observe the earlier carries.
  FcmTree scalar(small_config(), fcm::common::SeededHash(0x77));
  FcmTree batched(small_config(), fcm::common::SeededHash(0x77));
  const std::vector<FlowKey> keys(1000, FlowKey{0xdecafbad});

  std::vector<std::uint64_t> scalar_estimates;
  for (const FlowKey key : keys) scalar_estimates.push_back(scalar.add(key));
  std::vector<std::uint64_t> batch_estimates(
      keys.size(), std::numeric_limits<std::uint64_t>::max());
  tree_add_batch(batched, std::span<const FlowKey>(keys),
                 std::span<std::uint64_t>(batch_estimates));

  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(batch_estimates[i], scalar_estimates[i]) << "i=" << i;
  }
  EXPECT_EQ(scalar.overflow_promotion_count(),
            batched.overflow_promotion_count());
  EXPECT_EQ(scalar.query(keys[0]), batched.query(keys[0]));
}

// --- FcmSketch ---------------------------------------------------------------

TEST(BatchEquivalence, SketchBatchMatchesScalarUpdates) {
  for (const std::size_t n : kBatchSizes) {
    const auto keys = skewed_keys(n, 1000 + n);
    FcmSketch scalar(small_config());
    FcmSketch batched(small_config());
    scalar.set_heavy_hitter_threshold(20);
    batched.set_heavy_hitter_threshold(20);

    for (const FlowKey key : keys) scalar.update(key);
    batched.add_batch(std::span<const FlowKey>(keys));

    expect_sketch_identical(scalar, batched);
  }
}

TEST(BatchEquivalence, SketchBatchSplitArbitrarily) {
  // Splitting one stream into many batches of awkward sizes changes nothing:
  // ...(batch of 1)(batch of 7)(batch of 64)(batch of 1000)... == scalar.
  const auto keys = skewed_keys(2144, 9);  // 1 + 7 + 64 + 1000 + 1072 tail
  FcmSketch scalar(small_config());
  FcmSketch batched(small_config());
  for (const FlowKey key : keys) scalar.update(key);

  std::span<const FlowKey> rest(keys);
  for (const std::size_t n : kBatchSizes) {
    batched.add_batch(rest.subspan(0, n));
    rest = rest.subspan(n);
  }
  batched.add_batch(rest);

  expect_sketch_identical(scalar, batched);
}

// --- FcmTopK -----------------------------------------------------------------

TEST(BatchEquivalence, TopKBatchMatchesScalarUpdates) {
  for (const std::size_t n : kBatchSizes) {
    const auto keys = skewed_keys(n, 555 + n);
    FcmTopK::Config config;
    config.fcm = small_config();
    config.topk_entries = 64;  // tiny table: plenty of evictions
    FcmTopK scalar(config);
    FcmTopK batched(config);
    scalar.set_heavy_hitter_threshold(20);
    batched.set_heavy_hitter_threshold(20);

    for (const FlowKey key : keys) scalar.update(key);
    batched.add_batch(std::span<const FlowKey>(keys));

    // Sketch parts bit-exact (including eviction flush ordering) ...
    expect_sketch_identical(scalar.sketch(), batched.sketch());
    // ... and the filter tables hold the same entries.
    auto ea = scalar.filter().entries();
    auto eb = batched.filter().entries();
    const auto by_key = [](const auto& x, const auto& y) { return x.key < y.key; };
    std::sort(ea.begin(), ea.end(), by_key);
    std::sort(eb.begin(), eb.end(), by_key);
    ASSERT_EQ(ea.size(), eb.size()) << "n=" << n;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].key, eb[i].key);
      EXPECT_EQ(ea[i].count, eb[i].count);
      EXPECT_EQ(ea[i].has_light_part, eb[i].has_light_part);
    }
    for (const FlowKey key : keys) {
      ASSERT_EQ(scalar.query(key), batched.query(key));
    }
  }
}

TEST(BatchEquivalence, TopKBatchZeroKeyPassesThrough) {
  // FlowKey{0} is the filter's empty sentinel; the batch path must route it
  // to the sketch exactly as offer() does.
  FcmTopK::Config config;
  config.fcm = small_config();
  config.topk_entries = 64;
  FcmTopK scalar(config);
  FcmTopK batched(config);
  std::vector<FlowKey> keys = skewed_keys(100, 77);
  for (std::size_t i = 0; i < keys.size(); i += 3) keys[i] = FlowKey{0};

  for (const FlowKey key : keys) scalar.update(key);
  batched.add_batch(std::span<const FlowKey>(keys));

  expect_sketch_identical(scalar.sketch(), batched.sketch());
  EXPECT_EQ(scalar.query(FlowKey{0}), batched.query(FlowKey{0}));
}

// --- FcmFramework ------------------------------------------------------------

TEST(BatchEquivalence, FrameworkSpanMatchesPerPacket) {
  for (const bool with_topk : {false, true}) {
    FcmFramework::Options options;
    options.fcm = small_config();
    options.topk_entries = with_topk ? 64 : 0;
    options.heavy_hitter_threshold = 25;
    options.metrics = nullptr;
    FcmFramework scalar(options);
    FcmFramework batched(options);

    const auto keys = skewed_keys(3000, 13);
    std::vector<Packet> packets;
    packets.reserve(keys.size());
    for (const FlowKey key : keys) packets.push_back({key, 100, 0});

    for (const Packet& packet : packets) scalar.process(packet);
    batched.process(std::span<const Packet>(packets));

    expect_sketch_identical(scalar.sketch(), batched.sketch());
    auto hh_a = scalar.heavy_hitters();
    auto hh_b = batched.heavy_hitters();
    std::sort(hh_a.begin(), hh_a.end());
    std::sort(hh_b.begin(), hh_b.end());
    EXPECT_EQ(hh_a, hh_b) << "with_topk=" << with_topk;
    for (const FlowKey key : keys) {
      ASSERT_EQ(scalar.flow_size(key), batched.flow_size(key));
    }
  }
}

TEST(BatchEquivalence, FrameworkByteModeSpanMatchesPerPacket) {
  // kBytes increments are data-dependent, so the span overload stays on the
  // per-packet path — but it must still produce identical state.
  FcmFramework::Options options;
  options.fcm = small_config();
  options.count_mode = FcmFramework::CountMode::kBytes;
  options.metrics = nullptr;
  FcmFramework scalar(options);
  FcmFramework batched(options);

  const auto keys = skewed_keys(2000, 21);
  std::mt19937_64 rng(22);
  std::vector<Packet> packets;
  packets.reserve(keys.size());
  for (const FlowKey key : keys) {
    packets.push_back({key, static_cast<std::uint32_t>(40 + rng() % 1460), 0});
  }
  for (const Packet& packet : packets) scalar.process(packet);
  batched.process(std::span<const Packet>(packets));
  expect_sketch_identical(scalar.sketch(), batched.sketch());
}

// --- sharded runtime ---------------------------------------------------------

TEST(BatchEquivalence, ShardedSpanIngestInterleavedWithRotations) {
  // ingest(span<FlowKey>) batches interleaved with rotate_async() epoch
  // markers: each merged epoch must be bit-exact the serial framework fed
  // that epoch's keys through process_batch (plain-FCM merge is exact).
  const auto keys = skewed_keys(24000, 99, 1500);
  const std::size_t third = keys.size() / 3;

  for (const std::size_t shards : {1ul, 2ul, 4ul}) {
    ShardedFcmFramework::Options options;
    options.framework.fcm = small_config();
    options.framework.heavy_hitter_threshold = 50;
    options.framework.metrics = nullptr;
    options.metrics = nullptr;
    options.shard_count = shards;
    options.queue_capacity = 1 << 10;
    ShardedFcmFramework sharded(options);

    std::span<const FlowKey> all(keys);
    // Epoch 0: two batches with an odd split. Epoch 1: the rest, pushed as
    // several small spans between the rotation markers.
    sharded.ingest(all.subspan(0, third - 5));
    sharded.ingest(all.subspan(third - 5, 5));
    const std::size_t epoch0 = sharded.rotate_async();
    for (std::size_t base = third; base < keys.size(); base += 1000) {
      sharded.ingest(all.subspan(base, std::min<std::size_t>(1000, keys.size() - base)));
    }
    const std::size_t epoch1 = sharded.rotate_async();
    sharded.wait_epoch(epoch0);
    sharded.wait_epoch(epoch1);

    FcmFramework::Options serial_options = options.framework;
    FcmFramework serial0(serial_options);
    serial0.process_batch(all.subspan(0, third));
    FcmFramework serial1(serial_options);
    serial1.process_batch(all.subspan(third));

    expect_trees_identical(serial0.sketch(), sharded.merged_epoch(1).sketch());
    expect_trees_identical(serial1.sketch(), sharded.merged_epoch(0).sketch());
    sharded.stop();
  }
}

TEST(BatchEquivalence, ShardedBlockStagedSpansBitExactAcrossSizesAndShards) {
  // The block-staged hand-off matrix the ISSUE pins: N in {1, 2, 4, 8} and
  // span sizes {1, block-1, block, block+1, 10*block} around the publication
  // boundary (block == flush_batch), interleaved with rotations so partial
  // blocks get flushed by the marker path mid-stream. Each merged epoch must
  // be tree-bit-exact against a serial framework fed the same keys — the
  // rotation boundary falls INSIDE a span-size cycle, so epochs end on
  // ragged, partially-staged state.
  constexpr std::size_t kBlock = 64;  // default Options::flush_batch
  const std::size_t span_sizes[] = {1, kBlock - 1, kBlock, kBlock + 1,
                                    10 * kBlock};
  // One cycle consumes 1 + 63 + 64 + 65 + 640 = 833 keys; three cycles total.
  const auto keys = skewed_keys(3 * 833, 123, 1200);

  for (const std::size_t shards : {1ul, 2ul, 4ul, 8ul}) {
    ShardedFcmFramework::Options options;
    options.framework.fcm = small_config();
    options.framework.heavy_hitter_threshold = 50;
    options.framework.metrics = nullptr;
    options.metrics = nullptr;
    options.shard_count = shards;
    ShardedFcmFramework sharded(options);

    // Epoch 0: one full cycle of the span sizes (831 keys). Epoch 1: two
    // more cycles. Serial twins consume the same split.
    std::span<const FlowKey> rest(keys);
    const auto feed_cycles = [&](std::size_t cycles) {
      std::size_t fed = 0;
      for (std::size_t c = 0; c < cycles; ++c) {
        for (const std::size_t n : span_sizes) {
          sharded.ingest(rest.subspan(0, n));
          rest = rest.subspan(n);
          fed += n;
        }
      }
      return fed;
    };
    const std::size_t epoch0_keys = feed_cycles(1);
    const std::size_t epoch0 = sharded.rotate_async();
    const std::size_t epoch1_keys = feed_cycles(2);
    const std::size_t epoch1 = sharded.rotate_async();
    ASSERT_EQ(sharded.wait_epoch(epoch0).packets, epoch0_keys);
    ASSERT_EQ(sharded.wait_epoch(epoch1).packets, epoch1_keys);

    std::span<const FlowKey> all(keys);
    FcmFramework::Options serial_options = options.framework;
    FcmFramework serial0(serial_options);
    serial0.process_batch(all.subspan(0, epoch0_keys));
    FcmFramework serial1(serial_options);
    serial1.process_batch(all.subspan(epoch0_keys, epoch1_keys));

    expect_trees_identical(serial0.sketch(), sharded.merged_epoch(1).sketch());
    expect_trees_identical(serial1.sketch(), sharded.merged_epoch(0).sketch());
    sharded.stop();
  }
}

// --- kernel dispatch matrix (DESIGN.md §14) ----------------------------------
//
// Every kernel tier — scalar and (on capable CPUs) the hand-written AVX2
// index kernel — forced in-process through force_kernel_tier(), must produce
// bit-identical hashes, indices, tree state, promotion counters, and per-key
// estimates. The tier only decides how SeededHash::index_batch runs; each
// tree test drives the full index_batch -> apply_block path under it. The scalar per-key entry points (FcmTree::add, FcmSketch::update)
// never dispatch, so they are the tier-independent ground truth throughout.

using fcm::common::simd::KernelTier;

// Tiers available on this machine. AVX2 joins the matrix only when the CPU
// supports it; CI's perf-smoke asserts capable runners actually take it.
std::vector<KernelTier> equivalence_tiers() {
  std::vector<KernelTier> tiers{KernelTier::kScalar};
  if (fcm::common::simd::cpu_supports_avx2()) tiers.push_back(KernelTier::kAvx2);
  return tiers;
}

// RAII tier override; restores the probed default on scope exit so test
// order never leaks a forced tier.
class ForcedTier {
 public:
  explicit ForcedTier(KernelTier tier) {
    fcm::common::simd::force_kernel_tier(tier);
  }
  ~ForcedTier() { fcm::common::simd::force_kernel_tier(std::nullopt); }
  ForcedTier(const ForcedTier&) = delete;
  ForcedTier& operator=(const ForcedTier&) = delete;
};

// Dispatch-matrix sizes: below / straddling / well above both the
// kBatchBlock stride and the AVX2 index kernel's 8-lane group width.
constexpr std::size_t kMatrixSizes[] = {1, 7, 63, 64, 65, 1000};

TEST(DispatchMatrix, IndexBatchBitExactAcrossTiers) {
  const fcm::common::SeededHash hash(0xfeedf00d);
  for (const KernelTier tier : equivalence_tiers()) {
    ForcedTier forced(tier);
    for (const std::size_t n : kMatrixSizes) {
      const auto keys = skewed_keys(n, 17 + n);
      std::vector<std::uint32_t> idx(n);
      for (const std::size_t width : {1ul, 7ul, 2048ul, 600000ul}) {
        hash.index_batch(std::span<const FlowKey>(keys), width,
                         std::span<std::uint32_t>(idx));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(idx[i], hash.index(keys[i], width))
              << "tier " << fcm::common::simd::kernel_tier_name(tier)
              << " n=" << n << " width=" << width << " i=" << i;
        }
      }
    }
  }
}

TEST(DispatchMatrix, TreeBatchBitExactAcrossTiers) {
  for (const KernelTier tier : equivalence_tiers()) {
    ForcedTier forced(tier);
    for (const std::size_t n : kMatrixSizes) {
      // Dup-heavy skew: plenty of repeated keys inside one block, so later
      // duplicates must observe the increments and carries of earlier ones.
      const auto keys = skewed_keys(n, 42 + n);
      FcmTree scalar(small_config(), fcm::common::SeededHash(0xabc));
      FcmTree batched(small_config(), fcm::common::SeededHash(0xabc));

      std::vector<std::uint64_t> scalar_estimates;
      scalar_estimates.reserve(n);
      for (const FlowKey key : keys) scalar_estimates.push_back(scalar.add(key));

      std::vector<std::uint64_t> batch_estimates(
          n, std::numeric_limits<std::uint64_t>::max());
      tree_add_batch(batched, std::span<const FlowKey>(keys),
                     std::span<std::uint64_t>(batch_estimates));

      for (std::size_t l = 1; l <= small_config().stage_count(); ++l) {
        const auto sa = scalar.stage(l);
        const auto sb = batched.stage(l);
        for (std::size_t i = 0; i < sa.size(); ++i) {
          ASSERT_EQ(sa[i], sb[i])
              << "tier " << fcm::common::simd::kernel_tier_name(tier)
              << " n=" << n << " stage " << l << " node " << i;
        }
      }
      EXPECT_EQ(scalar.overflow_promotion_count(),
                batched.overflow_promotion_count());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(batch_estimates[i], scalar_estimates[i])
            << "tier " << fcm::common::simd::kernel_tier_name(tier)
            << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(DispatchMatrix, TreeOverflowLaneFallbackAcrossTiers) {
  // A 4-bit leaf stage (counting max 14) over 64 leaves: most nodes sit at
  // the cap after a few hundred adds, so apply_block alternates its
  // below-cap increment with add_at carry walks on nearly every key.
  // Promotions must land in the SAME key positions as the per-key path — any
  // reordering shows up in the estimates.
  FcmConfig config;
  config.tree_count = 2;
  config.k = 8;
  config.stage_bits = {4, 8, 32};
  config.leaf_count = 64;
  config.seed = 0x1234;

  for (const KernelTier tier : equivalence_tiers()) {
    ForcedTier forced(tier);
    const auto keys = skewed_keys(4000, 7, 512);
    FcmTree scalar(config, fcm::common::SeededHash(0x55));
    FcmTree batched(config, fcm::common::SeededHash(0x55));

    std::vector<std::uint64_t> scalar_estimates;
    for (const FlowKey key : keys) scalar_estimates.push_back(scalar.add(key));
    std::vector<std::uint64_t> batch_estimates(
        keys.size(), std::numeric_limits<std::uint64_t>::max());
    tree_add_batch(batched, std::span<const FlowKey>(keys),
                   std::span<std::uint64_t>(batch_estimates));

    // The point of the fixture: the overflow slow path actually ran.
    ASSERT_GT(scalar.overflow_promotion_count(), 0u);
    EXPECT_EQ(scalar.overflow_promotion_count(),
              batched.overflow_promotion_count())
        << "tier " << fcm::common::simd::kernel_tier_name(tier);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(batch_estimates[i], scalar_estimates[i])
          << "tier " << fcm::common::simd::kernel_tier_name(tier) << " i=" << i;
    }
    for (std::size_t l = 1; l <= config.stage_count(); ++l) {
      const auto sa = scalar.stage(l);
      const auto sb = batched.stage(l);
      for (std::size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(sa[i], sb[i]) << "stage " << l << " node " << i;
      }
    }
  }
}

TEST(DispatchMatrix, TreeDuplicateHeavyKeyAcrossTiers) {
  // One key repeated 1000 times: every index in every block is the same
  // counter, so each increment depends on the previous one and the node
  // trips into overflow mid-block — the degenerate ordering case.
  for (const KernelTier tier : equivalence_tiers()) {
    ForcedTier forced(tier);
    FcmTree scalar(small_config(), fcm::common::SeededHash(0x77));
    FcmTree batched(small_config(), fcm::common::SeededHash(0x77));
    const std::vector<FlowKey> keys(1000, FlowKey{0xdecafbad});

    std::vector<std::uint64_t> scalar_estimates;
    for (const FlowKey key : keys) scalar_estimates.push_back(scalar.add(key));
    std::vector<std::uint64_t> batch_estimates(
        keys.size(), std::numeric_limits<std::uint64_t>::max());
    tree_add_batch(batched, std::span<const FlowKey>(keys),
                   std::span<std::uint64_t>(batch_estimates));

    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(batch_estimates[i], scalar_estimates[i])
          << "tier " << fcm::common::simd::kernel_tier_name(tier) << " i=" << i;
    }
    EXPECT_EQ(scalar.overflow_promotion_count(),
              batched.overflow_promotion_count());
  }
}

// Node index at stage `stage_1based` on the path of leaf `leaf`.
std::size_t path_node(const FcmConfig& config, std::size_t leaf,
                      std::size_t stage_1based) {
  for (std::size_t l = 1; l < stage_1based; ++l) leaf /= config.k;
  return leaf;
}

// Sum of the counting maxima of stages 1..`stages`: a bulk add of this much
// to an empty path fills every one of those stages exactly to its cap.
std::uint64_t path_capacity(const FcmConfig& config, std::size_t stages) {
  std::uint64_t total = 0;
  for (std::size_t l = 1; l <= stages; ++l) total += config.counting_max(l);
  return total;
}

TEST(DispatchMatrix, NoConsumerApplyMatchesPerKeyState) {
  // apply_block without an estimate consumer settles a block out of key
  // order (level-1 pass, overflowed-leaf level-2 pass, carry walk). Its
  // stage state and promotion counter must equal per-key add() in order.
  // Each config gets one hand-built 64-key block in which a leaf trips from
  // below its cap, a level-2 parent saturates and the root saturates, plus a
  // long skewed stream through many blocks.
  const auto make = [](std::size_t k, std::vector<unsigned> bits,
                       std::size_t leaves) {
    FcmConfig config;
    config.tree_count = 1;
    config.k = k;
    config.stage_bits = std::move(bits);
    config.leaf_count = leaves;
    config.seed = 0x1234;
    return config;
  };
  const FcmConfig configs[] = {
      make(8, {4, 8, 32}, 64),  // three stages, one 32-bit root
      make(3, {4, 8, 16}, 63),  // k not a power of two: parent = x / 3
      make(8, {8, 16}, 64),     // two stages: the level-2 parent is the root
      make(8, {32}, 64),        // one stage: no level-2 pass
  };
  constexpr std::size_t kHits = 6;

  for (const KernelTier tier : equivalence_tiers()) {
    ForcedTier forced(tier);
    for (const FcmConfig& config : configs) {
      const std::size_t levels = config.stage_count();
      SCOPED_TRACE("tier " +
                   std::string(fcm::common::simd::kernel_tier_name(tier)) +
                   " k=" + std::to_string(config.k) +
                   " stages=" + std::to_string(levels));
      FcmTree scalar(config, fcm::common::SeededHash(0x55));
      FcmTree batched(config, fcm::common::SeededHash(0x55));

      // Three keys whose leaves sit under three different level-2 parents
      // (different leaves, for the one-stage tree).
      std::vector<FlowKey> special;
      std::vector<std::size_t> parents;
      for (std::uint32_t v = 1; special.size() < 3; ++v) {
        const FlowKey key{v};
        const std::size_t parent =
            path_node(config, scalar.leaf_index(key), std::min<std::size_t>(2, levels));
        if (std::find(parents.begin(), parents.end(), parent) != parents.end()) {
          continue;
        }
        special.push_back(key);
        parents.push_back(parent);
      }
      const FlowKey trip = special[0];     // leaf two below its cap
      const FlowKey parent2 = special[1];  // overflowed leaf, parent near cap
      const FlowKey root = special[2];     // whole path full, root near cap

      // Prime both trees identically with bulk adds.
      const std::uint64_t cap1 = config.counting_max(1);
      const std::uint64_t primes[] = {
          cap1 - 2,
          levels > 1 ? path_capacity(config, 2) - 3 : 0,
          path_capacity(config, levels) - 3,
      };
      for (std::size_t s = 0; s < 3; ++s) {
        if (primes[s] == 0) continue;
        scalar.add(special[s], primes[s]);
        batched.add(special[s], primes[s]);
      }
      const std::size_t trip_leaf = scalar.leaf_index(trip);
      const std::size_t parent_node =
          path_node(config, scalar.leaf_index(parent2), 2);
      const std::size_t root_node =
          path_node(config, scalar.leaf_index(root), levels);
      ASSERT_FALSE(scalar.node_overflowed(1, trip_leaf));
      if (levels > 1) {
        ASSERT_FALSE(scalar.node_overflowed(2, parent_node));
      }
      ASSERT_FALSE(scalar.node_overflowed(levels, root_node));

      // One block: kHits of each special key among random filler keys.
      std::mt19937_64 rng(99 + levels);
      std::vector<FlowKey> block;
      for (std::size_t h = 0; h < kHits; ++h) {
        block.insert(block.end(), {trip, parent2, root});
      }
      while (block.size() < fcm::common::kBatchBlock) {
        block.push_back(FlowKey{static_cast<std::uint32_t>(rng()) | 1u});
      }
      std::shuffle(block.begin(), block.end(), rng);

      const std::uint64_t promotions_before = scalar.overflow_promotion_count();
      for (const FlowKey key : block) scalar.add(key);
      tree_add_batch(batched, std::span<const FlowKey>(block), {});

      // The fixture did what it claims, inside that one block.
      EXPECT_TRUE(scalar.node_overflowed(1, trip_leaf));
      if (levels > 1) {
        EXPECT_TRUE(scalar.node_overflowed(2, parent_node));
      }
      EXPECT_TRUE(scalar.node_overflowed(levels, root_node));
      EXPECT_GT(scalar.overflow_promotion_count(), promotions_before);

      // Then a long dup-heavy stream through many no-consumer blocks.
      const auto stream = skewed_keys(4000, 7 + levels, 512);
      for (const FlowKey key : stream) scalar.add(key);
      tree_add_batch(batched, std::span<const FlowKey>(stream), {});

      EXPECT_EQ(scalar.overflow_promotion_count(),
                batched.overflow_promotion_count());
      for (std::size_t l = 1; l <= levels; ++l) {
        const auto sa = scalar.stage(l);
        const auto sb = batched.stage(l);
        for (std::size_t i = 0; i < sa.size(); ++i) {
          ASSERT_EQ(sa[i], sb[i]) << "stage " << l << " node " << i;
        }
      }
    }
  }
}

TEST(DispatchMatrix, NoConsumerSketchBatchMatchesPerKeyState) {
  // FcmSketch::add_batch with no heavy-hitter threshold hands every tree an
  // empty estimate span. A 4-bit leaf stage over 64 leaves keeps most keys
  // on the overflow paths.
  FcmConfig config;
  config.tree_count = 2;
  config.k = 8;
  config.stage_bits = {4, 8, 32};
  config.leaf_count = 64;
  config.seed = 0x1234;
  for (const KernelTier tier : equivalence_tiers()) {
    ForcedTier forced(tier);
    for (const std::size_t n : {1ul, 63ul, 64ul, 65ul, 1000ul}) {
      const auto keys = skewed_keys(n, 300 + n);
      FcmSketch scalar(config);
      FcmSketch batched(config);
      for (const FlowKey key : keys) scalar.update(key);
      batched.add_batch(std::span<const FlowKey>(keys));
      SCOPED_TRACE("tier " +
                   std::string(fcm::common::simd::kernel_tier_name(tier)) +
                   " n=" + std::to_string(n));
      expect_sketch_identical(scalar, batched);
    }
  }
}

TEST(DispatchMatrix, SketchSplitBatchesAcrossTiers) {
  for (const KernelTier tier : equivalence_tiers()) {
    ForcedTier forced(tier);
    const auto keys = skewed_keys(2144, 9);
    FcmSketch scalar(small_config());
    FcmSketch batched(small_config());
    scalar.set_heavy_hitter_threshold(20);
    batched.set_heavy_hitter_threshold(20);
    for (const FlowKey key : keys) scalar.update(key);

    std::span<const FlowKey> rest(keys);
    for (const std::size_t n : kMatrixSizes) {
      batched.add_batch(rest.subspan(0, n));
      rest = rest.subspan(n);
    }
    batched.add_batch(rest);

    expect_sketch_identical(scalar, batched);
  }
}

TEST(DispatchMatrix, SketchBatchAtMaxTreesAcrossTiers) {
  // FcmConfig::kMaxTrees trees fill every row of FcmSketch::add_batch's
  // per-tree index and estimate buffers; with a heavy-hitter threshold set
  // the estimate path runs too.
  FcmConfig config = small_config();
  config.tree_count = FcmConfig::kMaxTrees;
  for (const KernelTier tier : equivalence_tiers()) {
    ForcedTier forced(tier);
    const auto keys = skewed_keys(1000, 8);
    FcmSketch scalar(config);
    FcmSketch batched(config);
    scalar.set_heavy_hitter_threshold(20);
    batched.set_heavy_hitter_threshold(20);
    for (const FlowKey key : keys) scalar.update(key);
    batched.add_batch(std::span<const FlowKey>(keys));

    ASSERT_EQ(batched.tree_count(), FcmConfig::kMaxTrees);
    expect_sketch_identical(scalar, batched);
  }
}

TEST(DispatchMatrix, TierParsingAndEnvResolution) {
  using fcm::common::simd::parse_kernel_tier;
  using fcm::common::simd::resolve_kernel_tier;
  EXPECT_EQ(parse_kernel_tier("scalar"), KernelTier::kScalar);
  EXPECT_EQ(parse_kernel_tier("avx2"), KernelTier::kAvx2);
  EXPECT_EQ(parse_kernel_tier("autovec"), std::nullopt);
  EXPECT_EQ(parse_kernel_tier("AVX2"), std::nullopt);
  EXPECT_EQ(parse_kernel_tier(""), std::nullopt);

  // The FCM_FORCE_KERNEL contract: a valid value wins; avx2 on a CPU
  // without AVX2 degrades to scalar; garbage falls back to the probe. The
  // probe is read with the variable unset, and the caller's value comes back
  // on every exit, so the test holds whatever environment it starts in.
  class SavedForceKernelEnv {
   public:
    SavedForceKernelEnv() {
      if (const char* value = std::getenv("FCM_FORCE_KERNEL")) saved_ = value;
      unsetenv("FCM_FORCE_KERNEL");
    }
    ~SavedForceKernelEnv() {
      if (saved_) {
        setenv("FCM_FORCE_KERNEL", saved_->c_str(), 1);
      } else {
        unsetenv("FCM_FORCE_KERNEL");
      }
    }

   private:
    std::optional<std::string> saved_;
  };
  const SavedForceKernelEnv saved_env;
  const KernelTier probed = resolve_kernel_tier();
  ASSERT_EQ(setenv("FCM_FORCE_KERNEL", "scalar", 1), 0);
  EXPECT_EQ(resolve_kernel_tier(), KernelTier::kScalar);
  ASSERT_EQ(setenv("FCM_FORCE_KERNEL", "avx2", 1), 0);
  EXPECT_EQ(resolve_kernel_tier(), fcm::common::simd::cpu_supports_avx2()
                                       ? KernelTier::kAvx2
                                       : KernelTier::kScalar);
  ASSERT_EQ(setenv("FCM_FORCE_KERNEL", "bogus", 1), 0);
  EXPECT_EQ(resolve_kernel_tier(), probed);
  ASSERT_EQ(unsetenv("FCM_FORCE_KERNEL"), 0);
  EXPECT_EQ(resolve_kernel_tier(), probed);
}

TEST(BatchEquivalence, ShardedByteModeReportsBytes) {
  // Byte accounting folded into the worker's block-apply sweep: the epoch
  // report's bytes equal the exact sum of ingested packet sizes.
  ShardedFcmFramework::Options options;
  options.framework.fcm = small_config();
  options.framework.metrics = nullptr;
  options.framework.count_mode = FcmFramework::CountMode::kBytes;
  options.metrics = nullptr;
  options.shard_count = 2;
  ShardedFcmFramework sharded(options);

  const auto keys = skewed_keys(3000, 151, 400);
  std::mt19937_64 rng(152);
  std::vector<Packet> packets;
  std::uint64_t total_bytes = 0;
  packets.reserve(keys.size());
  for (const FlowKey key : keys) {
    const auto bytes = static_cast<std::uint32_t>(40 + rng() % 1460);
    packets.push_back({key, bytes, 0});
    total_bytes += bytes;
  }
  sharded.ingest(std::span<const Packet>(packets));
  const auto report = sharded.wait_epoch(sharded.rotate_async());
  EXPECT_EQ(report.bytes, total_bytes);
  EXPECT_EQ(report.packets, packets.size());
}

}  // namespace
