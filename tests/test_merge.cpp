// Merge semantics (DESIGN.md §7): counter-sum with overflow promotion.
//
// The headline guarantee of the sharded runtime rests on these properties:
//   - FcmTree/FcmSketch merges are BIT-EXACT: the merged state
//     equals the state one structure would hold after absorbing all shards'
//     streams (checked node-for-node and query-for-query, N in {1,2,4,8});
//   - merge is an identity w.r.t. an empty sketch, commutative, and
//     associative on random traces;
//   - the merged overflow-promotion tally equals the serial tally, even when
//     several shards tripped the same node;
//   - mismatched configurations are rejected via FCM_REQUIRE;
//   - heavy-hitter sets are unioned, deduped, and re-qualified against the
//     merged counters, including flows that cross the threshold only after
//     merging (the ceil(T/N) per-shard threshold scheme).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/contracts.h"
#include "fcm/fcm_sketch.h"
#include "flow/synthetic.h"

namespace fcm {
namespace {

using core::FcmConfig;
using core::FcmSketch;
using core::FcmTree;
using flow::FlowKey;
using flow::Trace;

// A small geometry whose 4-bit leaves (cap 14) and 8-bit mid stage (cap 254)
// overflow readily, exercising promotion through every level incl. the root.
FcmConfig tiny_config() {
  FcmConfig config;
  config.tree_count = 2;
  config.k = 4;
  config.stage_bits = {4, 8, 16};
  config.leaf_count = 256;
  config.seed = 0xfeedbeef;
  return config;
}

// A realistically-shaped (scaled-down) sketch for the trace-driven tests.
FcmConfig small_config() {
  FcmConfig config;
  config.tree_count = 2;
  config.k = 8;
  config.stage_bits = {8, 16, 32};
  config.leaf_count = 4096;
  config.seed = 0x5555aaaa;
  return config;
}

Trace fixed_trace(std::uint64_t seed, std::uint64_t packets = 60'000,
                  std::uint64_t flows = 3'000) {
  flow::SyntheticTraceConfig config;
  config.packet_count = packets;
  config.flow_count = flows;
  config.seed = seed;
  Trace trace = flow::SyntheticTraceGenerator(config).generate();
  // One jumbo flow that overflows the 16-bit mid stage (65534) so counts
  // promote into the 32-bit root even in the small geometry.
  for (int i = 0; i < 70'000; ++i) {
    trace.append(flow::Packet{FlowKey{0x0a0a0a0a}, 64, 0});
  }
  return trace;
}

std::vector<FlowKey> distinct_keys(const Trace& trace) {
  std::unordered_set<FlowKey> seen;
  for (const auto& packet : trace.packets()) seen.insert(packet.key);
  return {seen.begin(), seen.end()};
}

void expect_same_tree_state(const FcmTree& a, const FcmTree& b) {
  ASSERT_EQ(a.config().stage_count(), b.config().stage_count());
  for (std::size_t l = 1; l <= a.config().stage_count(); ++l) {
    const auto sa = a.stage(l);
    const auto sb = b.stage(l);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i], sb[i]) << "stage " << l << " node " << i;
    }
  }
}

void expect_same_sketch_state(const FcmSketch& a, const FcmSketch& b) {
  ASSERT_EQ(a.tree_count(), b.tree_count());
  for (std::size_t t = 0; t < a.tree_count(); ++t) {
    expect_same_tree_state(a.tree(t), b.tree(t));
  }
}

// Splits `trace` round-robin into `n` shards — the worst case for merging:
// every flow is split across every shard.
std::vector<Trace> split_round_robin(const Trace& trace, std::size_t n) {
  std::vector<Trace> shards(n);
  std::size_t next = 0;
  for (const auto& packet : trace.packets()) {
    shards[next].append(packet);
    next = next + 1 == n ? 0 : next + 1;
  }
  return shards;
}

// --- tree-level bit-exactness ----------------------------------------------

TEST(FcmTreeMerge, BitExactVersusSerialThroughAllLevels) {
  const FcmConfig config = tiny_config();
  const auto hash = common::make_hash(config.seed, 0);
  FcmTree serial(config, hash);
  FcmTree shard_a(config, hash);
  FcmTree shard_b(config, hash);

  // 400 flows with linearly growing sizes: many leaves overflow (cap 14),
  // several mid-stage nodes overflow (cap 254); plus one flow large enough
  // to overflow even the 16-bit root (cap 65534) — the serial tree drops the
  // excess there, and the merged tree must drop it identically.
  for (std::uint32_t f = 1; f <= 400; ++f) {
    const std::uint64_t count = f;
    const std::uint64_t half = count / 2;
    serial.add(FlowKey{f}, count);
    if (half > 0) shard_a.add(FlowKey{f}, half);
    shard_b.add(FlowKey{f}, count - half);
  }
  serial.add(FlowKey{42'000'000}, 70'000);
  shard_a.add(FlowKey{42'000'000}, 35'000);
  shard_b.add(FlowKey{42'000'000}, 35'000);

  shard_a.merge(shard_b);
  expect_same_tree_state(shard_a, serial);
  shard_a.check_invariants();

  for (std::uint32_t f = 1; f <= 400; ++f) {
    EXPECT_EQ(shard_a.query(FlowKey{f}), serial.query(FlowKey{f}));
  }
  EXPECT_EQ(shard_a.query(FlowKey{42'000'000}), serial.query(FlowKey{42'000'000}));
  EXPECT_EQ(shard_a.total_count(), serial.total_count());
  EXPECT_EQ(shard_a.empty_leaf_count(), serial.empty_leaf_count());
}

// A serial tree trips each node at most once, so its promotion tally is its
// count of overflowed nodes. When every shard trips the same leaves (and the
// jumbo flow's mid-stage node), summing the shard tallies would count those
// trips N times; the merged tally must equal the serial one, including nodes
// that only the merge trips (flows below a leaf's cap in every shard).
TEST(FcmTreeMerge, PromotionTallyEqualsSerialWhenShardsTripTheSameNodes) {
  const FcmConfig config = tiny_config();
  const auto hash = common::make_hash(config.seed, 0);
  for (const std::size_t n : {2u, 4u, 8u}) {
    SCOPED_TRACE("N = " + std::to_string(n));
    FcmTree serial(config, hash);
    std::vector<FcmTree> shards(n, FcmTree(config, hash));
    const auto add_split = [&](FlowKey key, std::uint64_t count) {
      serial.add(key, count);
      for (std::size_t s = 0; s < n; ++s) {
        const std::uint64_t part = count / n + (s < count % n ? 1 : 0);
        if (part > 0) shards[s].add(key, part);
      }
    };
    // Flows 1..200 have 120..320 packets: every shard trips their leaves
    // (cap 14) at any N <= 8. Flows 201..300 have 20 packets: below the cap
    // in every shard at N >= 2, overflowing only in the merge.
    for (std::uint32_t f = 1; f <= 200; ++f) add_split(FlowKey{f}, 120 + f);
    for (std::uint32_t f = 201; f <= 300; ++f) add_split(FlowKey{f}, 20);
    add_split(FlowKey{42'000'000}, 70'000);

    std::uint64_t shard_tally_sum = 0;
    for (const FcmTree& shard : shards) {
      shard_tally_sum += shard.overflow_promotion_count();
    }
    // The case under test: shards tripped the same nodes.
    ASSERT_GT(shard_tally_sum, serial.overflow_promotion_count());

    FcmTree merged = shards[0];
    for (std::size_t s = 1; s < n; ++s) merged.merge(shards[s]);
    expect_same_tree_state(merged, serial);
    EXPECT_EQ(merged.overflow_promotion_count(),
              serial.overflow_promotion_count());
  }
}

TEST(FcmTreeMerge, RejectsMismatchedGeometryAndHash) {
  const FcmConfig config = tiny_config();
  FcmTree tree(config, common::make_hash(config.seed, 0));

  FcmConfig other = config;
  other.leaf_count = config.leaf_count * 4;
  FcmTree wrong_geometry(other, common::make_hash(other.seed, 0));
  EXPECT_THROW(tree.merge(wrong_geometry), common::ContractViolation);

  FcmTree wrong_hash(config, common::make_hash(config.seed, 1));
  EXPECT_THROW(tree.merge(wrong_hash), common::ContractViolation);
}

// --- sketch-level: the acceptance criterion --------------------------------

// Merged N-shard count queries are bit-exact equal to the serial sketch on a
// fixed-seed synthetic trace for N in {1, 2, 4, 8}.
TEST(FcmSketchMerge, MergedShardsBitExactVersusSerial) {
  const Trace trace = fixed_trace(7);
  const std::vector<FlowKey> keys = distinct_keys(trace);

  FcmSketch serial(small_config());
  for (const auto& packet : trace.packets()) serial.update(packet.key);

  for (const std::size_t n : {1u, 2u, 4u, 8u}) {
    std::vector<FcmSketch> shards;
    for (std::size_t s = 0; s < n; ++s) shards.emplace_back(small_config());
    std::size_t next = 0;
    for (const auto& packet : trace.packets()) {
      shards[next].update(packet.key);
      next = next + 1 == n ? 0 : next + 1;
    }
    FcmSketch merged = shards[0];
    for (std::size_t s = 1; s < n; ++s) merged.merge(shards[s]);

    SCOPED_TRACE("N = " + std::to_string(n));
    expect_same_sketch_state(merged, serial);
    merged.check_invariants();
    for (const FlowKey key : keys) {
      ASSERT_EQ(merged.query(key), serial.query(key));
    }
    // Absent keys agree too (state equality implies it; spot-check anyway).
    EXPECT_EQ(merged.query(FlowKey{0xdeadbeef}), serial.query(FlowKey{0xdeadbeef}));
    EXPECT_DOUBLE_EQ(merged.estimate_cardinality(), serial.estimate_cardinality());
  }
}

TEST(FcmSketchMerge, EmptyIsAnIdentity) {
  const Trace trace = fixed_trace(11, 20'000, 1'500);

  FcmSketch loaded(small_config());
  for (const auto& packet : trace.packets()) loaded.update(packet.key);
  const FcmSketch reference = loaded;

  FcmSketch empty(small_config());
  loaded.merge(empty);  // right identity
  expect_same_sketch_state(loaded, reference);

  FcmSketch empty_left(small_config());
  empty_left.merge(reference);  // left identity
  expect_same_sketch_state(empty_left, reference);
}

TEST(FcmSketchMerge, CommutativeOnRandomTraces) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    const Trace trace = fixed_trace(seed, 30'000, 2'000);
    auto halves = split_round_robin(trace, 2);

    FcmSketch a(small_config());
    FcmSketch b(small_config());
    for (const auto& p : halves[0].packets()) a.update(p.key);
    for (const auto& p : halves[1].packets()) b.update(p.key);

    FcmSketch ab = a;
    ab.merge(b);
    FcmSketch ba = b;
    ba.merge(a);
    SCOPED_TRACE("seed = " + std::to_string(seed));
    expect_same_sketch_state(ab, ba);
  }
}

TEST(FcmSketchMerge, AssociativeOnRandomTraces) {
  for (const std::uint64_t seed : {5u, 23u, 77u}) {
    const Trace trace = fixed_trace(seed, 30'000, 2'000);
    auto thirds = split_round_robin(trace, 3);

    std::vector<FcmSketch> shards;
    for (std::size_t s = 0; s < 3; ++s) {
      shards.emplace_back(small_config());
      for (const auto& p : thirds[s].packets()) shards[s].update(p.key);
    }

    FcmSketch left = shards[0];  // (A ∪ B) ∪ C
    left.merge(shards[1]);
    left.merge(shards[2]);

    FcmSketch bc = shards[1];  // A ∪ (B ∪ C)
    bc.merge(shards[2]);
    FcmSketch right = shards[0];
    right.merge(bc);

    SCOPED_TRACE("seed = " + std::to_string(seed));
    expect_same_sketch_state(left, right);
  }
}

TEST(FcmSketchMerge, RejectsMismatchedConfigs) {
  FcmSketch sketch(small_config());

  FcmConfig different_width = small_config();
  different_width.leaf_count *= 8;
  EXPECT_THROW(sketch.merge(FcmSketch(different_width)),
               common::ContractViolation);

  FcmConfig different_seed = small_config();
  different_seed.seed ^= 1;
  EXPECT_THROW(sketch.merge(FcmSketch(different_seed)),
               common::ContractViolation);

  FcmConfig different_trees = small_config();
  different_trees.tree_count = 3;
  EXPECT_THROW(sketch.merge(FcmSketch(different_trees)),
               common::ContractViolation);

  FcmConfig different_stages = small_config();
  different_stages.stage_bits = {8, 16, 24};
  EXPECT_THROW(sketch.merge(FcmSketch(different_stages)),
               common::ContractViolation);

  // Mismatched heavy-hitter thresholds are a semantic mismatch too.
  FcmSketch with_threshold(small_config());
  with_threshold.set_heavy_hitter_threshold(100);
  EXPECT_THROW(sketch.merge(with_threshold), common::ContractViolation);
}

// --- heavy-hitter semantics under merge ------------------------------------

// Regression for the sharded runtime's detection scheme: a flow split across
// shards crosses the global threshold T only after merging. Shards record at
// ceil(T/N); after the merge the union is re-qualified at T — the split flow
// is kept, and a per-shard candidate below T globally is dropped.
TEST(FcmSketchMerge, FlowCrossesThresholdOnlyAfterMerging) {
  constexpr std::uint64_t kGlobalThreshold = 100;
  constexpr std::uint64_t kPerShardThreshold = 50;  // ceil(100 / 2)

  FcmSketch shard_a(small_config());
  FcmSketch shard_b(small_config());
  shard_a.set_heavy_hitter_threshold(kPerShardThreshold);
  shard_b.set_heavy_hitter_threshold(kPerShardThreshold);

  const FlowKey split_flow{0x01010101};   // 60 + 60 = 120 >= T, but 60 < T
  const FlowKey local_flow{0x02020202};   // 60 packets in one shard only
  const FlowKey small_flow{0x03030303};   // 30 + 30: below even ceil(T/N)
  for (int i = 0; i < 60; ++i) shard_a.update(split_flow);
  for (int i = 0; i < 60; ++i) shard_b.update(split_flow);
  for (int i = 0; i < 60; ++i) shard_a.update(local_flow);
  for (int i = 0; i < 30; ++i) shard_a.update(small_flow);
  for (int i = 0; i < 30; ++i) shard_b.update(small_flow);

  // Neither shard alone can certify the split flow at the global threshold…
  EXPECT_LT(shard_a.query(split_flow), kGlobalThreshold);
  EXPECT_LT(shard_b.query(split_flow), kGlobalThreshold);
  // …but both record it as a ceil(T/N) candidate.
  EXPECT_TRUE(shard_a.heavy_hitters().contains(split_flow));
  EXPECT_TRUE(shard_b.heavy_hitters().contains(split_flow));
  EXPECT_TRUE(shard_a.heavy_hitters().contains(local_flow));
  EXPECT_FALSE(shard_a.heavy_hitters().contains(small_flow));

  FcmSketch merged = shard_a;
  merged.merge(shard_b);
  merged.requalify_heavy_hitters(kGlobalThreshold);

  EXPECT_TRUE(merged.heavy_hitters().contains(split_flow))
      << "flow crossing the threshold only after merging must be kept";
  EXPECT_FALSE(merged.heavy_hitters().contains(local_flow))
      << "per-shard candidate below the global threshold must be dropped";
  EXPECT_FALSE(merged.heavy_hitters().contains(small_flow));
  EXPECT_EQ(merged.query(split_flow), 120u);
}

TEST(FcmSketchMerge, UnionIsDedupedAndRequalifiedAgainstMergedCounters) {
  FcmSketch shard_a(small_config());
  FcmSketch shard_b(small_config());
  shard_a.set_heavy_hitter_threshold(40);
  shard_b.set_heavy_hitter_threshold(40);

  const FlowKey both{0x11111111};
  for (int i = 0; i < 50; ++i) shard_a.update(both);
  for (int i = 0; i < 50; ++i) shard_b.update(both);

  FcmSketch merged = shard_a;
  merged.merge(shard_b);
  // Recorded by both shards; the union holds it exactly once.
  EXPECT_EQ(merged.heavy_hitters().count(both), 1u);
  EXPECT_EQ(merged.query(both), 100u);
}

}  // namespace
}  // namespace fcm
