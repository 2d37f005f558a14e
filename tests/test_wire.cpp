// Wire-format suite (DESIGN.md §11): the FcmFramework snapshot round-trip,
// the version-4 frame size, header and fingerprint semantics, the
// receiver-owned options, the refusal of other wire versions, the
// hostile-input battery, and seeded property tests
// (tests/property_harness.h) pinning that serialize→deserialize→merge() is
// bit-exact with the all-in-memory merge for N∈{1,2,4,8} vantage points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "agg/wire.h"
#include "common/contracts.h"
#include "controlplane/em.h"
#include "flow/flow_key.h"
#include "framework/fcm_framework.h"
#include "property_harness.h"

namespace fcm {
namespace {

using agg::WireCodec;
using agg::WireHeader;
using common::ContractViolation;
using proptest::random_keys;
using proptest::small_fcm_config;

constexpr std::uint64_t kSeed = 0xfca9;
constexpr std::size_t kTraceLength = 20'000;
constexpr std::uint32_t kUniverse = 1'500;
constexpr std::size_t kHeaderBytes = 24;

framework::FcmFramework::Options plain_options(std::uint64_t seed = kSeed) {
  framework::FcmFramework::Options options;
  options.fcm = small_fcm_config(seed);
  options.heavy_hitter_threshold = 64;
  options.metrics = nullptr;
  return options;
}

framework::FcmFramework loaded(framework::FcmFramework::Options options,
                               std::size_t length, std::uint32_t universe) {
  framework::FcmFramework fw(std::move(options));
  for (const flow::FlowKey key : random_keys(kSeed, length, universe)) {
    fw.process(key);
  }
  return fw;
}

// The options of the small frameworks the hostile battery serializes and
// corrupts: a low heavy-hitter threshold so the candidate list is
// non-empty. Every hostile case decodes under these same options, so its
// frame passes the fingerprint check and the corruption reaches the
// payload decoder.
framework::FcmFramework::Options hostile_options() {
  auto options = plain_options();
  options.heavy_hitter_threshold = 8;
  return options;
}

framework::FcmFramework hostile_framework() {
  return loaded(hostile_options(), 2'000, 200);
}

std::vector<std::byte> hostile_frame() {
  return WireCodec::serialize(hostile_framework());
}

// Bytes one tree's stage arrays take on the wire: width(l) counters per
// stage, each in the smallest of u8/u16/u32 that holds 2^b_l - 1.
std::size_t tree_wire_bytes(const core::FcmConfig& config) {
  std::size_t total = 0;
  for (std::size_t l = 1; l <= config.stage_count(); ++l) {
    const unsigned bits = config.stage_bits[l - 1];
    total += config.width(l) * (bits <= 8 ? 1 : bits <= 16 ? 2 : 4);
  }
  return total;
}

std::vector<std::byte> patch_u64(std::vector<std::byte> buf, std::size_t offset,
                                 std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    buf[offset + i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
  }
  return buf;
}

void expect_same_policy(const control::EmConfig& got,
                        const control::EmConfig& want) {
  EXPECT_EQ(got.max_iterations, want.max_iterations);
  EXPECT_EQ(got.thread_count, want.thread_count);
}

// --- round-trips ------------------------------------------------------------

TEST(WireRoundTrip, FrameworkIsBitExact) {
  const auto options = plain_options();
  const framework::FcmFramework fw = loaded(options, kTraceLength, kUniverse);
  const auto wire = WireCodec::serialize(fw);
  const framework::FcmFramework restored =
      WireCodec::deserialize_framework(wire, options);
  restored.check_invariants();
  for (std::uint32_t id = 0; id < kUniverse; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(fw.flow_size(key), restored.flow_size(key)) << "key " << id;
  }
  EXPECT_EQ(fw.cardinality(), restored.cardinality());
  // analyze() parity: same state + same EM config => identical report.
  const auto a = fw.analyze();
  const auto b = restored.analyze();
  EXPECT_EQ(a.entropy, b.entropy);
  EXPECT_EQ(a.estimated_flows, b.estimated_flows);
  EXPECT_EQ(a.cardinality, b.cardinality);
  // Canonical encoding: re-serializing the restored framework reproduces
  // the exact bytes.
  EXPECT_EQ(wire, WireCodec::serialize(restored));
}

// Version 4 (DESIGN.md §11.1): the header, every tree's stage arrays at
// their stage widths, the heavy-hitter count and keys, and the
// cardinality-saturation count; nothing else.
TEST(WireRoundTrip, FrameIsTheCountersAndTheCandidates) {
  const auto options = plain_options();
  const framework::FcmFramework fw = loaded(options, kTraceLength, kUniverse);
  const std::size_t candidates = fw.heavy_hitters().size();
  ASSERT_GT(candidates, 0u);
  const auto wire = WireCodec::serialize(fw);
  EXPECT_EQ(wire.size(), kHeaderBytes +
                             options.fcm.tree_count *
                                 tree_wire_bytes(options.fcm) +
                             8 + 4 * candidates + 8);
  // The payload opens with tree 0's 8-bit leaf stage, one byte per leaf.
  ASSERT_EQ(options.fcm.stage_bits[0], 8u);
  const auto leaves = fw.sketch().tree(0).stage(1);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    ASSERT_EQ(std::to_integer<std::uint32_t>(wire[kHeaderBytes + i]),
              leaves[i])
        << "leaf " << i;
  }
}

TEST(WireRoundTrip, EmptyObjectsRoundTrip) {
  const auto options = plain_options();
  const framework::FcmFramework fw(options);
  const framework::FcmFramework restored =
      WireCodec::deserialize_framework(WireCodec::serialize(fw), options);
  EXPECT_EQ(restored.flow_size(flow::FlowKey{7}), 0u);
}

// The frame carries the data plane only: the restored framework analyzes
// under the receiver's EmConfig and reports into the receiver's registry,
// whatever the sender ran.
TEST(WireRoundTrip, ReceiverOwnsAnalysisPolicy) {
  auto sender = plain_options();
  sender.em.max_iterations = 1;
  sender.em.thread_count = 4;
  auto receiver = plain_options();
  receiver.em.max_iterations = 3;
  receiver.metrics = &obs::MetricsRegistry::global();

  const framework::FcmFramework fw = loaded(sender, kTraceLength, kUniverse);
  const auto wire = WireCodec::serialize(fw);
  // EM policy does not reach the bytes at all.
  EXPECT_EQ(wire, WireCodec::serialize(
                      loaded(plain_options(), kTraceLength, kUniverse)));

  const framework::FcmFramework restored =
      WireCodec::deserialize_framework(wire, receiver);
  expect_same_policy(restored.options().em, receiver.em);
  EXPECT_EQ(restored.options().metrics, receiver.metrics);

  // Same data plane analyzed under the receiver's policy.
  const auto got = restored.analyze();
  const auto want = loaded(receiver, kTraceLength, kUniverse).analyze();
  EXPECT_EQ(got.fsd.counts(), want.fsd.counts());
  EXPECT_EQ(got.entropy, want.entropy);
  EXPECT_EQ(got.estimated_flows, want.estimated_flows);
}

// --- header / fingerprint semantics ----------------------------------------

TEST(WireHeaderTest, PeekReportsTypeVersionFingerprint) {
  const framework::FcmFramework fw(plain_options());
  const auto wire = WireCodec::serialize(fw);
  const WireHeader header = WireCodec::peek(wire);
  EXPECT_EQ(header.version, agg::kWireVersion);
  EXPECT_EQ(agg::kWireVersion, 4u);
  // The type tag kept its version-1 value for the framework snapshot.
  EXPECT_EQ(wire[6], std::byte{9});
  EXPECT_EQ(header.fingerprint, WireCodec::merge_fingerprint(fw.options()));
  EXPECT_EQ(header.payload_bytes, wire.size() - kHeaderBytes);
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
}

// A version-3 frame is refused at the header, before its payload is read,
// with an error naming both versions; deserialize refuses it too.
TEST(WireHeaderTest, VersionThreeFrameIsRefusedAtPeek) {
  const auto options = hostile_options();
  auto frame = hostile_frame();
  frame[4] = std::byte{3};
  frame[5] = std::byte{0};

  try {
    (void)WireCodec::peek(frame);
    FAIL() << "a version-3 frame passed peek";
  } catch (const ContractViolation& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("unsupported wire version 3"), std::string::npos)
        << what;
    EXPECT_NE(what.find("reads 4"), std::string::npos) << what;
  }
  EXPECT_THROW((void)WireCodec::deserialize_framework(frame, options),
               ContractViolation);
}

// The frame carries no options, so a receiver whose merge options differ in
// geometry, seed, threshold or count mode refuses it at the fingerprint,
// before building anything.
TEST(WireHeaderTest, FrameIsRefusedUnderOtherOptions) {
  const auto options = hostile_options();
  const auto wire = hostile_frame();
  auto geometry = options;
  geometry.fcm.leaf_count *= 2;
  auto seed = options;
  seed.fcm.seed ^= 1;
  auto threshold = options;
  threshold.heavy_hitter_threshold += 1;
  auto mode = options;
  mode.count_mode = framework::FcmFramework::CountMode::kBytes;
  for (const auto& receiver : {geometry, seed, threshold, mode}) {
    try {
      (void)WireCodec::deserialize_framework(wire, receiver);
      ADD_FAILURE() << "a frame decoded under foreign options";
    } catch (const ContractViolation& err) {
      EXPECT_NE(std::string(err.what()).find("fingerprint mismatch"),
                std::string::npos)
          << err.what();
    }
  }
}

// Only the framework tag (9) opens; the tags version 1 gave other sketch
// types are as foreign as any other byte.
TEST(WireHeaderTest, ForeignTypeTagsAreRejected) {
  const auto wire = WireCodec::serialize(framework::FcmFramework(plain_options()));
  for (unsigned tag = 0; tag < 256; ++tag) {
    if (tag == 9) continue;
    auto corrupt = wire;
    corrupt[6] = static_cast<std::byte>(tag);
    EXPECT_THROW((void)WireCodec::peek(corrupt), ContractViolation)
        << "tag " << tag;
  }
}

// --- hostile inputs ---------------------------------------------------------

// Every strict prefix must throw: the header pins the exact payload length,
// so truncation at ANY byte is detectable (and must never read past the
// end — the ASan job enforces the "never UB" half).
TEST(WireHostile, EveryTruncationThrows) {
  const auto options = hostile_options();
  const auto wire = hostile_frame();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::vector<std::byte> prefix(
        wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)WireCodec::deserialize_framework(prefix, options),
                 ContractViolation)
        << "prefix length " << len;
  }
}

TEST(WireHostile, HeaderCorruptionsThrow) {
  const auto options = hostile_options();
  const auto wire = hostile_frame();
  // Wrong magic, flipped version byte, foreign type tag, non-zero reserved
  // byte, fingerprint flip (a mismatch with the receiver's options), and
  // payload-length flip: every header byte is load-bearing, so flipping ANY
  // of the 24 must throw.
  for (std::size_t i = 0; i < kHeaderBytes; ++i) {
    auto corrupt = wire;
    corrupt[i] ^= std::byte{0x40};
    EXPECT_THROW((void)WireCodec::deserialize_framework(corrupt, options),
                 ContractViolation)
        << "header byte " << i;
  }
}

// A flipped bit anywhere in the payload must either throw a
// ContractViolation or produce a framework that still passes its deep
// invariants — never UB, never bad_alloc, never a structurally broken
// sketch (fuzz-lite, same posture as test_pcap). Each payload byte gets
// one flip, rotating through its eight bits so every bit position of every
// multi-byte count field is hit somewhere.
TEST(WireHostile, PayloadBitFlipsNeverBreakInvariants) {
  const auto options = hostile_options();
  const auto wire = hostile_frame();
  std::size_t rejected = 0;
  std::size_t decoded = 0;
  for (std::size_t i = kHeaderBytes; i < wire.size(); ++i) {
    auto corrupt = wire;
    corrupt[i] ^= static_cast<std::byte>(1u << (i % 8));
    try {
      const framework::FcmFramework restored =
          WireCodec::deserialize_framework(corrupt, options);
      restored.check_invariants();
      ++decoded;
    } catch (const ContractViolation&) {
      ++rejected;
    }
  }
  // Flips past a stage's overflow marker, into the candidate count or that
  // break the overflow structure must reject; flips inside plain counter
  // values, candidate keys and the saturation count legitimately decode.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded, 0u);
}

// An oversized declared heavy-hitter count, the one count the decoder reads
// from the frame, must be rejected BEFORE any allocation is sized from it
// (the require_payload discipline): a frame of a few KB claiming 2^60
// heavy hitters throws instead of reserving petabytes. If it ever
// allocated first, the test would throw bad_alloc or OOM-kill the suite
// rather than pass.
TEST(WireHostile, OversizedDeclaredCountsThrowWithoutAllocating) {
  const auto options = hostile_options();
  const framework::FcmFramework fw = hostile_framework();
  const auto wire = WireCodec::serialize(fw);
  // The payload ends with u64 hh_count, the u32 candidate keys and a u64
  // cardinality-saturations field.
  const std::size_t hh_offset =
      wire.size() - 8 - 4 * fw.sketch().heavy_hitters().size() - 8;
  ASSERT_GT(fw.sketch().heavy_hitters().size(), 0u);
  EXPECT_THROW((void)WireCodec::deserialize_framework(
                   patch_u64(wire, hh_offset, 1ull << 60), options),
               ContractViolation);
}

// A fingerprint forged to match a receiver of another geometry gets the
// frame past the header, and the counters then decode under the receiver's
// own geometry: a larger sketch runs out of bytes, a smaller one leaves
// trailing bytes, and both throw.
TEST(WireHostile, ForgedFingerprintForForeignGeometryThrows) {
  const auto wire = hostile_frame();
  auto larger = hostile_options();
  larger.fcm.leaf_count *= 2;
  auto smaller = hostile_options();
  smaller.fcm.leaf_count /= 2;
  auto deeper = hostile_options();
  deeper.fcm.stage_bits = {8, 16, 24, 32};
  deeper.fcm.leaf_count = 8 * 8 * 8 * 8;
  for (const auto& receiver : {larger, smaller, deeper}) {
    const auto forged =
        patch_u64(wire, 8, WireCodec::merge_fingerprint(receiver));
    EXPECT_THROW((void)WireCodec::deserialize_framework(forged, receiver),
                 ContractViolation)
        << receiver.fcm.leaf_count << " leaves, "
        << receiver.fcm.stage_count() << " stages";
  }
}

TEST(WireHostile, EmptyAndGarbageBuffersThrow) {
  EXPECT_THROW((void)WireCodec::peek({}), ContractViolation);
  std::vector<std::byte> garbage(64, std::byte{0xa5});
  EXPECT_THROW((void)WireCodec::peek(garbage), ContractViolation);
  EXPECT_THROW((void)WireCodec::deserialize_framework(garbage, plain_options()),
               ContractViolation);
}

// --- round-trip + merge properties ------------------------------------------

// Bit-exact network-wide merge through the wire: split the trace across N
// vantage points, round-trip every replica through serialize/deserialize,
// merge the restored replicas, and compare every flow estimate (plus
// cardinality and heavy hitters) against merging the in-memory replicas.
proptest::Property wire_merge_bit_exact(std::size_t vantage_count,
                                        std::uint64_t seed) {
  return [=](const std::vector<flow::FlowKey>& keys)
             -> std::optional<proptest::Counterexample> {
    const auto options = plain_options(seed);
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
          WireCodec::serialize(replicas[v]), options);
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
  proptest::expect_property(wire_merge_bit_exact(vantages, seed), seed,
                            12'000, kUniverse,
                            "wire round-trip + merge (plain FCM)");
}

INSTANTIATE_TEST_SUITE_P(
    Vantages, WireMergeProperty,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8}),
                       ::testing::Values(7ull, 0xbeefull)));

}  // namespace
}  // namespace fcm
