// Wire-format suite (DESIGN.md §11): round-trips for every sketch type,
// the hostile-input battery for the deserializers, and seeded property
// tests (tests/property_harness.h) pinning that serialize→deserialize→
// merge() is bit-exact with the all-in-memory merge for N∈{1,2,4,8}
// vantage points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "agg/wire.h"
#include "common/contracts.h"
#include "fcm/fcm_sketch.h"
#include "fcm/fcm_topk.h"
#include "flow/flow_key.h"
#include "framework/fcm_framework.h"
#include "property_harness.h"
#include "sketch/cardinality.h"
#include "sketch/cm_sketch.h"
#include "sketch/topk_filter.h"

namespace fcm {
namespace {

using agg::WireCodec;
using agg::WireHeader;
using agg::WireType;
using common::ContractViolation;
using proptest::random_keys;
using proptest::small_fcm_config;

constexpr std::uint64_t kSeed = 0xfca9;
constexpr std::size_t kTraceLength = 20'000;
constexpr std::uint32_t kUniverse = 1'500;

framework::FcmFramework::Options plain_options(std::uint64_t seed = kSeed) {
  framework::FcmFramework::Options options;
  options.fcm = small_fcm_config(seed);
  options.heavy_hitter_threshold = 64;
  options.metrics = nullptr;
  return options;
}

framework::FcmFramework::Options topk_options(std::uint64_t seed = kSeed) {
  framework::FcmFramework::Options options = plain_options(seed);
  options.topk_entries = 64;
  return options;
}

// --- round-trips ------------------------------------------------------------

TEST(WireRoundTrip, FcmTreeIsBitExact) {
  core::FcmTree tree(small_fcm_config(kSeed), common::make_hash(kSeed, 0));
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    tree.add(key);
  }
  const std::vector<std::byte> wire = WireCodec::serialize(tree);
  const core::FcmTree restored = WireCodec::deserialize_tree(wire);
  restored.check_invariants();
  for (std::uint32_t id = 0; id < kUniverse; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(tree.query(key), restored.query(key)) << "key " << id;
  }
  EXPECT_EQ(tree.overflow_promotion_count(),
            restored.overflow_promotion_count());
  // Canonical encoding: re-serializing the restored object reproduces the
  // exact bytes.
  EXPECT_EQ(wire, WireCodec::serialize(restored));
}

TEST(WireRoundTrip, FcmSketchIsBitExact) {
  core::FcmSketch sketch(small_fcm_config(kSeed));
  sketch.set_heavy_hitter_threshold(64);
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    sketch.update(key);
  }
  const std::vector<std::byte> wire = WireCodec::serialize(sketch);
  const core::FcmSketch restored = WireCodec::deserialize_sketch(wire);
  restored.check_invariants();
  for (std::uint32_t id = 0; id < kUniverse; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(sketch.query(key), restored.query(key)) << "key " << id;
  }
  EXPECT_EQ(sketch.estimate_cardinality(), restored.estimate_cardinality());
  EXPECT_EQ(sketch.heavy_hitters(), restored.heavy_hitters());
  EXPECT_EQ(wire, WireCodec::serialize(restored));
}

TEST(WireRoundTrip, CmAndCuSketchAreBitExact) {
  sketch::CmSketch cm(3, 4096, kSeed);
  sketch::CuSketch cu(3, 4096, kSeed);
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    cm.update(key);
    cu.update(key);
  }
  const auto cm_wire = WireCodec::serialize(cm);
  const auto cu_wire = WireCodec::serialize(cu);
  // The two subclasses get distinct type tags from the same overload.
  EXPECT_EQ(WireCodec::peek(cm_wire).type, WireType::kCmSketch);
  EXPECT_EQ(WireCodec::peek(cu_wire).type, WireType::kCuSketch);
  const sketch::CmSketch restored_cm = WireCodec::deserialize_cm(cm_wire);
  const sketch::CuSketch restored_cu = WireCodec::deserialize_cu(cu_wire);
  restored_cm.check_invariants();
  restored_cu.check_invariants();
  for (std::uint32_t id = 0; id < kUniverse; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(cm.query(key), restored_cm.query(key)) << "key " << id;
    ASSERT_EQ(cu.query(key), restored_cu.query(key)) << "key " << id;
  }
  EXPECT_EQ(cm_wire, WireCodec::serialize(restored_cm));
  EXPECT_EQ(cu_wire, WireCodec::serialize(restored_cu));
}

TEST(WireRoundTrip, TopKFilterIsBitExact) {
  sketch::TopKFilter filter(64, 8, kSeed);
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    (void)filter.offer(key);
  }
  const auto wire = WireCodec::serialize(filter);
  const sketch::TopKFilter restored = WireCodec::deserialize_topk_filter(wire);
  restored.check_invariants();
  for (std::uint32_t id = 0; id < kUniverse; ++id) {
    const flow::FlowKey key{id};
    const auto a = filter.query(key);
    const auto b = restored.query(key);
    ASSERT_EQ(a.has_value(), b.has_value()) << "key " << id;
    if (a.has_value()) {
      EXPECT_EQ(a->count, b->count);
      EXPECT_EQ(a->has_light_part, b->has_light_part);
    }
  }
  EXPECT_EQ(wire, WireCodec::serialize(restored));
}

TEST(WireRoundTrip, FcmTopKIsBitExact) {
  core::FcmTopK topk(proptest::small_topk_config(kSeed));
  topk.set_heavy_hitter_threshold(64);
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    topk.update(key);
  }
  const auto wire = WireCodec::serialize(topk);
  const core::FcmTopK restored = WireCodec::deserialize_fcm_topk(wire);
  restored.check_invariants();
  for (std::uint32_t id = 0; id < kUniverse; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(topk.query(key), restored.query(key)) << "key " << id;
  }
  EXPECT_EQ(topk.topk_flows(), restored.topk_flows());
  EXPECT_EQ(topk.estimate_cardinality(), restored.estimate_cardinality());
  EXPECT_EQ(wire, WireCodec::serialize(restored));
}

TEST(WireRoundTrip, CardinalityRegistersAreBitExact) {
  sketch::LinearCounting lc(4096, kSeed);
  sketch::HyperLogLog hll(1024, kSeed);
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    lc.update(key);
    hll.update(key);
  }
  const auto lc_wire = WireCodec::serialize(lc);
  const auto hll_wire = WireCodec::serialize(hll);
  const sketch::LinearCounting restored_lc =
      WireCodec::deserialize_linear_counting(lc_wire);
  const sketch::HyperLogLog restored_hll =
      WireCodec::deserialize_hll(hll_wire);
  EXPECT_EQ(lc.zero_bits(), restored_lc.zero_bits());
  EXPECT_EQ(lc.estimate(), restored_lc.estimate());
  EXPECT_EQ(hll.estimate(), restored_hll.estimate());
  EXPECT_EQ(lc_wire, WireCodec::serialize(restored_lc));
  EXPECT_EQ(hll_wire, WireCodec::serialize(restored_hll));
}

TEST(WireRoundTrip, FrameworkPlainAndTopKAreBitExact) {
  for (const auto& options : {plain_options(), topk_options()}) {
    framework::FcmFramework fw(options);
    for (const flow::FlowKey key :
         random_keys(kSeed, kTraceLength, kUniverse)) {
      fw.process(key);
    }
    const auto wire = WireCodec::serialize(fw);
    const framework::FcmFramework restored =
        WireCodec::deserialize_framework(wire, nullptr);
    restored.check_invariants();
    for (std::uint32_t id = 0; id < kUniverse; ++id) {
      const flow::FlowKey key{id};
      ASSERT_EQ(fw.flow_size(key), restored.flow_size(key))
          << "key " << id << " topk=" << options.topk_entries;
    }
    EXPECT_EQ(fw.cardinality(), restored.cardinality());
    // analyze() parity: same state + same EM config => identical report.
    const auto a = fw.analyze();
    const auto b = restored.analyze();
    EXPECT_EQ(a.entropy, b.entropy);
    EXPECT_EQ(a.estimated_flows, b.estimated_flows);
    EXPECT_EQ(a.cardinality, b.cardinality);
    EXPECT_EQ(wire, WireCodec::serialize(restored));
  }
}

TEST(WireRoundTrip, EmptyObjectsRoundTrip) {
  const core::FcmSketch sketch(small_fcm_config(kSeed));
  const core::FcmSketch restored =
      WireCodec::deserialize_sketch(WireCodec::serialize(sketch));
  EXPECT_EQ(restored.query(flow::FlowKey{7}), 0u);
  const sketch::TopKFilter filter(8);
  (void)WireCodec::deserialize_topk_filter(WireCodec::serialize(filter));
  const framework::FcmFramework fw(plain_options());
  (void)WireCodec::deserialize_framework(WireCodec::serialize(fw), nullptr);
}

// --- header / fingerprint semantics ----------------------------------------

TEST(WireHeaderTest, PeekReportsTypeVersionFingerprint) {
  const framework::FcmFramework fw(plain_options());
  const auto wire = WireCodec::serialize(fw);
  const WireHeader header = WireCodec::peek(wire);
  EXPECT_EQ(header.version, agg::kWireVersion);
  EXPECT_EQ(header.type, WireType::kFcmFramework);
  EXPECT_EQ(header.fingerprint, WireCodec::merge_fingerprint(fw.options()));
  EXPECT_EQ(header.payload_bytes, wire.size() - 24);
}

TEST(WireHeaderTest, FingerprintTracksMergeCompatibilityOnly) {
  const auto base = plain_options();
  const std::uint64_t fp = WireCodec::merge_fingerprint(base);

  // Local analysis policy must not change the fingerprint...
  auto em_tweaked = base;
  em_tweaked.em.max_iterations = 3;
  em_tweaked.em.thread_count = 4;
  em_tweaked.metrics = nullptr;
  EXPECT_EQ(fp, WireCodec::merge_fingerprint(em_tweaked));

  // ...but every merge-precondition field must.
  auto seed_changed = base;
  seed_changed.fcm.seed ^= 1;
  EXPECT_NE(fp, WireCodec::merge_fingerprint(seed_changed));
  auto geometry_changed = base;
  geometry_changed.fcm.leaf_count *= 2;
  EXPECT_NE(fp, WireCodec::merge_fingerprint(geometry_changed));
  auto threshold_changed = base;
  threshold_changed.heavy_hitter_threshold += 1;
  EXPECT_NE(fp, WireCodec::merge_fingerprint(threshold_changed));
  auto mode_changed = base;
  mode_changed.count_mode = framework::FcmFramework::CountMode::kBytes;
  EXPECT_NE(fp, WireCodec::merge_fingerprint(mode_changed));
  EXPECT_NE(fp, WireCodec::merge_fingerprint(topk_options()));
}

TEST(WireHeaderTest, TypeTagsAreEnforcedAcrossDeserializers) {
  const core::FcmSketch sketch(small_fcm_config(kSeed));
  const auto wire = WireCodec::serialize(sketch);
  EXPECT_THROW((void)WireCodec::deserialize_tree(wire), ContractViolation);
  EXPECT_THROW((void)WireCodec::deserialize_cm(wire), ContractViolation);
  EXPECT_THROW((void)WireCodec::deserialize_framework(wire, nullptr),
               ContractViolation);
  // CM wire is not CU wire: the conservative-update subclass has different
  // merge semantics, so the tags must not alias.
  const sketch::CmSketch cm(2, 64);
  EXPECT_THROW((void)WireCodec::deserialize_cu(WireCodec::serialize(cm)),
               ContractViolation);
}

// --- hostile inputs ---------------------------------------------------------

// Every strict prefix must throw: the header pins the exact payload length,
// so truncation at ANY byte is detectable (and must never read past the
// end — the ASan job enforces the "never UB" half).
TEST(WireHostile, EveryTruncationThrows) {
  core::FcmSketch sketch(small_fcm_config(kSeed));
  sketch.set_heavy_hitter_threshold(8);
  for (const flow::FlowKey key : random_keys(kSeed, 2'000, 200)) {
    sketch.update(key);
  }
  const auto wire = WireCodec::serialize(sketch);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::vector<std::byte> prefix(wire.begin(),
                                        wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)WireCodec::deserialize_sketch(prefix),
                 ContractViolation)
        << "prefix length " << len;
  }
}

TEST(WireHostile, HeaderCorruptionsThrow) {
  const core::FcmSketch sketch(small_fcm_config(kSeed));
  const auto wire = WireCodec::serialize(sketch);
  // Wrong magic, flipped version byte, non-zero reserved byte, unknown type
  // tag, fingerprint flip, and payload-length flip: every header byte is
  // load-bearing, so flipping ANY of the 24 must throw.
  for (std::size_t i = 0; i < 24; ++i) {
    auto corrupt = wire;
    corrupt[i] ^= std::byte{0x40};
    EXPECT_THROW((void)WireCodec::deserialize_sketch(corrupt),
                 ContractViolation)
        << "header byte " << i;
  }
}

// A flipped bit anywhere in the payload must either throw or produce an
// object that still passes its deep invariants — never UB, never a
// structurally broken sketch (fuzz-lite, same posture as test_trace_io).
TEST(WireHostile, PayloadBitFlipsNeverBreakInvariants) {
  core::FcmSketch sketch(small_fcm_config(kSeed));
  sketch.set_heavy_hitter_threshold(8);
  for (const flow::FlowKey key : random_keys(kSeed, 2'000, 200)) {
    sketch.update(key);
  }
  const auto wire = WireCodec::serialize(sketch);
  std::size_t rejected = 0;
  for (std::size_t i = 24; i < wire.size(); ++i) {
    auto corrupt = wire;
    corrupt[i] ^= std::byte{0x01};
    try {
      const core::FcmSketch restored = WireCodec::deserialize_sketch(corrupt);
      restored.check_invariants();
    } catch (const ContractViolation&) {
      ++rejected;
    }
  }
  // The config section, seeds, markers and count fields must all reject;
  // only flips inside plain counter values can legitimately decode.
  EXPECT_GT(rejected, 0u);
}

// Oversized declared counts must be rejected BEFORE any allocation is
// sized from them (the require_payload discipline): a 100-byte buffer
// claiming 2^60 heavy hitters / bitmap bits / CM columns throws instead of
// reserving petabytes. If any of these ever allocated first, the test
// would OOM-kill the suite rather than pass.
TEST(WireHostile, OversizedDeclaredCountsThrowWithoutAllocating) {
  const auto patch_u64 = [](std::vector<std::byte> buf, std::size_t offset,
                            std::uint64_t value) {
    for (std::size_t i = 0; i < 8; ++i) {
      buf[offset + i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
    }
    return buf;
  };

  // FcmSketch: hh_count is the 16..8 bytes from the end (followed only by
  // the u64 cardinality-saturations field).
  core::FcmSketch sketch(small_fcm_config(kSeed));
  sketch.set_heavy_hitter_threshold(8);
  const auto sketch_wire = WireCodec::serialize(sketch);
  EXPECT_THROW((void)WireCodec::deserialize_sketch(patch_u64(
                   sketch_wire, sketch_wire.size() - 16, 1ull << 60)),
               ContractViolation);

  // FcmConfig leaf_count: payload offset 8 (after tree_count + k), i.e.
  // buffer offset 24 + 8. A giant tree would dwarf the buffer.
  EXPECT_THROW(
      (void)WireCodec::deserialize_sketch(patch_u64(sketch_wire, 32, 1ull << 40)),
      ContractViolation);

  // CmSketch: width is at payload offset 4 (after u32 depth).
  const sketch::CmSketch cm(2, 64);
  const auto cm_wire = WireCodec::serialize(cm);
  EXPECT_THROW(
      (void)WireCodec::deserialize_cm(patch_u64(cm_wire, 24 + 4, 1ull << 60)),
      ContractViolation);

  // LinearCounting: bit count at payload offset 4 (after u32 hash seed).
  const sketch::LinearCounting lc(512);
  const auto lc_wire = WireCodec::serialize(lc);
  EXPECT_THROW((void)WireCodec::deserialize_linear_counting(
                   patch_u64(lc_wire, 24 + 4, 1ull << 60)),
               ContractViolation);

  // TopKFilter: entry count at payload offset 8 (after seed + lambda).
  const sketch::TopKFilter filter(8);
  const auto filter_wire = WireCodec::serialize(filter);
  EXPECT_THROW((void)WireCodec::deserialize_topk_filter(
                   patch_u64(filter_wire, 24 + 8, 1ull << 60)),
               ContractViolation);
}

// A frame declaring more trees than FcmConfig::kMaxTrees is refused by the
// config decoder itself, before any per-tree state is sized from the count.
TEST(WireHostile, TreeCountAboveMaxTreesThrows) {
  const core::FcmSketch sketch(small_fcm_config(kSeed));
  std::vector<std::byte> wire = WireCodec::serialize(sketch);
  // FcmConfig tree_count: the u32 at payload offset 0, buffer offset 24.
  const auto too_many =
      static_cast<std::uint32_t>(core::FcmConfig::kMaxTrees + 1);
  for (std::size_t i = 0; i < 4; ++i) {
    wire[24 + i] = static_cast<std::byte>((too_many >> (8 * i)) & 0xff);
  }
  try {
    (void)WireCodec::deserialize_sketch(wire);
    FAIL() << "a 9-tree frame decoded";
  } catch (const ContractViolation& err) {
    EXPECT_NE(std::string(err.what()).find("tree count out of range"),
              std::string::npos)
        << err.what();
  }
}

TEST(WireHostile, EmptyAndGarbageBuffersThrow) {
  EXPECT_THROW((void)WireCodec::peek({}), ContractViolation);
  std::vector<std::byte> garbage(64, std::byte{0xa5});
  EXPECT_THROW((void)WireCodec::peek(garbage), ContractViolation);
  EXPECT_THROW((void)WireCodec::deserialize_framework(garbage, nullptr),
               ContractViolation);
}

// --- round-trip + merge properties ------------------------------------------

// Bit-exact network-wide merge through the wire: split the trace across N
// vantage points, round-trip every replica through serialize/deserialize,
// merge the restored replicas, and compare every flow estimate (plus
// cardinality and heavy hitters) against merging the in-memory replicas.
proptest::Property wire_merge_bit_exact(std::size_t vantage_count,
                                        bool with_topk, std::uint64_t seed) {
  return [=](const std::vector<flow::FlowKey>& keys)
             -> std::optional<proptest::Counterexample> {
    const auto options = with_topk ? topk_options(seed) : plain_options(seed);
    std::vector<framework::FcmFramework> replicas(vantage_count,
                                                  framework::FcmFramework(options));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      replicas[i % vantage_count].process(keys[i]);
    }

    framework::FcmFramework in_memory(options);
    framework::FcmFramework via_wire(options);
    for (std::size_t v = 0; v < vantage_count; ++v) {
      in_memory.merge(replicas[v]);
      const framework::FcmFramework restored = WireCodec::deserialize_framework(
          WireCodec::serialize(replicas[v]), nullptr);
      via_wire.merge(restored);
    }

    for (const flow::FlowKey key : keys) {
      const std::uint64_t expected = in_memory.flow_size(key);
      const std::uint64_t estimate = via_wire.flow_size(key);
      if (estimate != expected) {
        return proptest::Counterexample{key, estimate, expected};
      }
    }
    if (in_memory.cardinality() != via_wire.cardinality()) {
      return proptest::Counterexample{flow::FlowKey{0}, 0, 1};
    }
    auto hh_a = in_memory.heavy_hitters();
    auto hh_b = via_wire.heavy_hitters();
    std::sort(hh_a.begin(), hh_a.end());
    std::sort(hh_b.begin(), hh_b.end());
    if (hh_a != hh_b) return proptest::Counterexample{flow::FlowKey{0}, 0, 2};
    return std::nullopt;
  };
}

class WireMergeProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(WireMergeProperty, PlainFrameworkBitExactAcrossVantages) {
  const auto [vantages, seed] = GetParam();
  proptest::expect_property(wire_merge_bit_exact(vantages, false, seed), seed,
                            12'000, kUniverse,
                            "wire round-trip + merge (plain FCM)");
}

TEST_P(WireMergeProperty, TopKFrameworkBitExactAcrossVantages) {
  const auto [vantages, seed] = GetParam();
  proptest::expect_property(wire_merge_bit_exact(vantages, true, seed), seed,
                            12'000, kUniverse,
                            "wire round-trip + merge (FCM+TopK)");
}

INSTANTIATE_TEST_SUITE_P(
    Vantages, WireMergeProperty,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8}),
                       ::testing::Values(7ull, 0xbeefull)));

}  // namespace
}  // namespace fcm
