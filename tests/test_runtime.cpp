// Tests for the sharded ingestion runtime (src/runtime/) and its block ring.
//
// The headline property: merged N-shard count queries are bit-exact equal to
// a serial FcmSketch fed the same fixed-seed trace, for N in {1, 2, 4, 8},
// although the driver's block rotation splits flows across shards; the
// rotation also balances shard loads to within one block.
// Also covered: the lock-free BlockQueue in isolation and across threads,
// epoch double-buffering (two back-to-back windows each serial-equivalent),
// non-stalling rotate_async, heavy-hitter re-qualification across shards at
// runtime level, merged epochs delivered to an AggregationService for heavy
// changes and EM (surging/vanishing flows, realistic windows), byte mode,
// backpressure at the fixed ring geometry, full and partial pair blocks,
// teardown discipline (stop() closes the un-rotated tail as a final epoch),
// and option validation via contracts.
//
// CI runs this binary under TSan (FCM_SANITIZE=thread): every cross-thread
// handoff in the runtime is exercised here.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "agg/agg_service.h"
#include "agg/wire.h"
#include "common/block_queue.h"
#include "common/contracts.h"
#include "common/hash.h"
#include "common/random.h"
#include "flow/flow_key.h"
#include "flow/packet.h"
#include "flow/synthetic.h"
#include "framework/fcm_framework.h"
#include "metrics/metrics.h"
#include "obs/metrics_registry.h"
#include "runtime/sharded_framework.h"

namespace {

using fcm::common::BlockQueue;
using fcm::common::ContractViolation;
using fcm::core::FcmConfig;
using fcm::flow::FlowKey;
using fcm::flow::Packet;
using fcm::framework::FcmFramework;
using fcm::runtime::ShardedFcmFramework;

// --- shared fixtures --------------------------------------------------------

// Small but multi-level FCM geometry: cheap enough for TSan, deep enough
// that the fixed traces push counters through stage-1 and stage-2 overflow.
FcmConfig small_config() {
  FcmConfig config;
  config.tree_count = 2;
  config.k = 8;
  config.stage_bits = {8, 16, 32};
  config.leaf_count = 4096;
  config.seed = 0x5555aaaa;
  return config;
}

FcmFramework::Options small_framework_options() {
  FcmFramework::Options options;
  options.fcm = small_config();
  options.em.max_iterations = 3;  // keep analyze() affordable in tests
  return options;
}

// Deterministic skewed trace: `flows` flows, geometric-ish sizes, plus one
// jumbo flow that overflows the 8-bit stage thousands of times over.
std::vector<Packet> fixed_trace(std::uint64_t seed, std::size_t packets = 40000,
                                std::size_t flows = 2000) {
  std::mt19937_64 rng(seed);
  std::vector<FlowKey> keys;
  keys.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    keys.push_back(FlowKey{static_cast<std::uint32_t>(rng())});
  }
  std::vector<Packet> trace;
  trace.reserve(packets + 500);
  // Zipf-ish: flow i gets weight ~ 1/(i+1).
  std::vector<double> weights(flows);
  for (std::size_t i = 0; i < flows; ++i) weights[i] = 1.0 / static_cast<double>(i + 1);
  std::discrete_distribution<std::size_t> pick(weights.begin(), weights.end());
  std::uniform_int_distribution<std::uint32_t> bytes(40, 1500);
  for (std::size_t p = 0; p < packets; ++p) {
    trace.push_back(Packet{keys[pick(rng)], bytes(rng), p});
  }
  // Jumbo flow: 500 extra packets for a key guaranteed present.
  for (std::size_t p = 0; p < 500; ++p) {
    trace.push_back(Packet{keys[0], 1500, packets + p});
  }
  return trace;
}

std::vector<FlowKey> distinct_keys(const std::vector<Packet>& trace) {
  std::vector<FlowKey> keys;
  keys.reserve(trace.size());
  for (const Packet& packet : trace) keys.push_back(packet.key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// Stage arrays and promotion tallies of every tree: the whole counter state.
void expect_same_counter_state(const FcmFramework& got,
                               const FcmFramework& want) {
  ASSERT_EQ(got.sketch().tree_count(), want.sketch().tree_count());
  for (std::size_t t = 0; t < want.sketch().tree_count(); ++t) {
    for (std::size_t l = 1; l <= want.sketch().config().stage_count(); ++l) {
      const auto got_stage = got.sketch().tree(t).stage(l);
      const auto want_stage = want.sketch().tree(t).stage(l);
      ASSERT_EQ(got_stage.size(), want_stage.size());
      for (std::size_t i = 0; i < want_stage.size(); ++i) {
        ASSERT_EQ(got_stage[i], want_stage[i])
            << "tree " << t << " stage " << l << " node " << i;
      }
    }
    EXPECT_EQ(got.sketch().tree(t).overflow_promotion_count(),
              want.sketch().tree(t).overflow_promotion_count())
        << "tree " << t << " promotion tally diverged";
  }
}

// One shard-labelled counter's per-shard values, for an instance with its
// own registry.
std::vector<std::uint64_t> shard_counter_values(
    fcm::obs::MetricsRegistry& registry, const std::string& name,
    std::size_t shards) {
  std::vector<std::uint64_t> values;
  for (std::size_t s = 0; s < shards; ++s) {
    values.push_back(
        registry.counter(name, {{"shard", std::to_string(s)}}).value());
  }
  return values;
}

std::vector<std::uint64_t> shard_packet_counts(
    fcm::obs::MetricsRegistry& registry, std::size_t shards) {
  return shard_counter_values(registry, "fcm_runtime_shard_packets_total",
                              shards);
}

// --- BlockQueue: block hand-off semantics ------------------------------------

TEST(BlockQueue, OpenPublishConsumeRoundTrip) {
  BlockQueue<std::uint32_t> queue(4, 16);
  queue.assume_producer();
  queue.assume_consumer();
  EXPECT_EQ(queue.block_count(), 4u);
  EXPECT_EQ(queue.block_size(), 16u);

  EXPECT_TRUE(queue.drained());
  std::uint32_t* slots = queue.try_open();
  ASSERT_NE(slots, nullptr);
  for (std::uint32_t i = 0; i < 10; ++i) slots[i] = 100 + i;
  queue.publish(10, /*kind=*/7);
  EXPECT_FALSE(queue.drained()) << "published block not yet released";

  BlockQueue<std::uint32_t>::View view;
  ASSERT_TRUE(queue.try_front(view));
  EXPECT_EQ(view.count, 10u);
  EXPECT_EQ(view.kind, 7u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(view.data[i], 100 + i);
  // try_front does not consume: same block again.
  ASSERT_TRUE(queue.try_front(view));
  EXPECT_EQ(view.count, 10u);
  queue.release();
  EXPECT_FALSE(queue.try_front(view)) << "released block still visible";
  EXPECT_TRUE(queue.drained());
}

TEST(BlockQueue, FullRingReturnsNullAndWrapsWithoutCorruption) {
  BlockQueue<std::uint64_t> queue(3, 4);
  queue.assume_producer();
  queue.assume_consumer();
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  for (int round = 0; round < 500; ++round) {
    std::uint64_t* slots;
    while ((slots = queue.try_open()) != nullptr) {
      for (std::size_t i = 0; i < 4; ++i) slots[i] = next_in++;
      queue.publish(4, 0);
    }
    EXPECT_EQ(queue.size_approx_blocks(), 3u) << "null only when full";
    BlockQueue<std::uint64_t>::View view;
    while (queue.try_front(view)) {
      for (std::uint32_t i = 0; i < view.count; ++i) {
        ASSERT_EQ(view.data[i], next_out) << "blocks reordered or corrupted";
        ++next_out;
      }
      queue.release();
    }
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_EQ(queue.high_water_blocks(), 3u);
}

// Cross-thread block hand-off (TSan target): every block arrives once, in
// order, with header and payload consistent.
TEST(BlockQueue, ThreadedBlockHandoffDeliversEveryBlockInOrder) {
  constexpr std::uint64_t kBlocks = 20000;
  constexpr std::uint32_t kBlockSize = 64;
  BlockQueue<std::uint64_t> queue(8, kBlockSize);

  std::jthread consumer([&queue] {
    queue.assume_consumer();
    std::uint64_t expected = 0;
    std::uint64_t block_index = 0;
    while (block_index < kBlocks) {
      BlockQueue<std::uint64_t>::View view;
      if (!queue.try_front(view)) {
        std::this_thread::yield();
        continue;
      }
      ASSERT_EQ(view.kind, block_index) << "header/payload tearing";
      for (std::uint32_t i = 0; i < view.count; ++i) {
        ASSERT_EQ(view.data[i], expected);
        ++expected;
      }
      queue.release();
      ++block_index;
    }
  });

  queue.assume_producer();  // the test main thread is the producer
  std::uint64_t next = 0;
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    std::uint64_t* slots;
    while ((slots = queue.try_open()) == nullptr) std::this_thread::yield();
    // Variable fill so partial blocks cross threads too.
    const std::uint32_t fill = 1 + static_cast<std::uint32_t>(b % kBlockSize);
    for (std::uint32_t i = 0; i < fill; ++i) slots[i] = next++;
    queue.publish(fill, /*kind=*/static_cast<std::uint32_t>(b));
  }
}

// --- ShardedFcmFramework: serial equivalence --------------------------------

// The acceptance criterion: for N in {1,2,4,8}, ingesting a fixed-seed trace
// through N shards and merging yields count queries bit-exact equal to one
// serial framework. Block rotation splits every flow larger than one block
// across shards, the adversarial case for merge correctness.
TEST(ShardedRuntime, MergedCountsBitExactVersusSerialForAllShardCounts) {
  const std::vector<Packet> trace = fixed_trace(0xfcf1ed);
  const std::vector<FlowKey> keys = distinct_keys(trace);

  FcmFramework serial(small_framework_options());
  for (const Packet& packet : trace) serial.process(packet.key);

  for (std::size_t shard_count : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shard_count=" + std::to_string(shard_count));
    ShardedFcmFramework::Options options;
    options.framework = small_framework_options();
    options.shard_count = shard_count;

    ShardedFcmFramework sharded(options);
    for (const Packet& packet : trace) sharded.ingest(packet.key);
    const ShardedFcmFramework::EpochReport report = sharded.rotate();

    EXPECT_EQ(report.packets, trace.size());
    const FcmFramework merged = sharded.merged_epoch();
    for (const FlowKey key : keys) {
      ASSERT_EQ(merged.flow_size(key), serial.flow_size(key))
          << "count query diverged for key " << key.value;
    }
    // Never-seen keys agree too (shared hash family).
    for (std::uint32_t probe = 1; probe <= 64; ++probe) {
      const FlowKey key{0xdead0000u + probe};
      ASSERT_EQ(merged.flow_size(key), serial.flow_size(key));
    }
    EXPECT_DOUBLE_EQ(report.cardinality, serial.cardinality());
    EXPECT_DOUBLE_EQ(merged.cardinality(), serial.cardinality());
    sharded.check_invariants();
  }
}

// The driver hands whole blocks to shards in strict rotation, so every flow
// with more than one block of packets is split across shards. Merged counter
// state — stage arrays and promotion tallies — still equals one serial
// framework's, for any shard count (3 included: not a power of two), any
// span size around the 64-key block (1, 63, 64, 65, 1000), unit and byte
// mode.
TEST(ShardedRuntime, BlockRotationIsSerialEquivalentAcrossShardsAndSpans) {
  const std::vector<Packet> trace = fixed_trace(0xabcdef, 6000, 400);
  for (const bool bytes : {false, true}) {
    FcmFramework::Options fw = small_framework_options();
    if (bytes) fw.count_mode = FcmFramework::CountMode::kBytes;
    FcmFramework serial(fw);
    std::uint64_t total_bytes = 0;
    for (const Packet& packet : trace) {
      if (bytes) {
        serial.process(packet);
      } else {
        serial.process(packet.key);
      }
      total_bytes += packet.bytes;
    }
    std::vector<FlowKey> keys;
    keys.reserve(trace.size());
    for (const Packet& packet : trace) keys.push_back(packet.key);

    for (const std::size_t shard_count : {1u, 2u, 3u, 4u, 8u}) {
      for (const std::size_t span : {1u, 63u, 64u, 65u, 1000u}) {
        SCOPED_TRACE(std::string(bytes ? "bytes" : "unit") +
                     " shards=" + std::to_string(shard_count) +
                     " span=" + std::to_string(span));
        ShardedFcmFramework::Options options;
        options.framework = fw;
        options.shard_count = shard_count;
        options.metrics = nullptr;
        ShardedFcmFramework sharded(options);
        for (std::size_t at = 0; at < trace.size(); at += span) {
          const std::size_t n = std::min(span, trace.size() - at);
          if (bytes) {
            sharded.ingest(std::span<const Packet>(trace).subspan(at, n));
          } else {
            sharded.ingest(std::span<const FlowKey>(keys).subspan(at, n));
          }
        }
        const ShardedFcmFramework::EpochReport report = sharded.rotate();
        EXPECT_EQ(report.packets, trace.size());
        if (bytes) {
          EXPECT_EQ(report.bytes, total_bytes);
        }
        expect_same_counter_state(sharded.merged_epoch(), serial);
        EXPECT_EQ(report.overflow_promotions, serial.overflow_promotion_count());
      }
    }
  }
}

// Rotation balances load by construction: within an epoch, shard packet
// counts differ by at most one block, whatever the flow-size skew, so the
// max/mean imbalance is at most 1 + N * common::kBatchBlock / packets.
TEST(ShardedRuntime, BlockRotationBalancesZipfTrafficToWithinOneBlock) {
  fcm::common::Xoshiro256 rng(0x21bf);
  fcm::common::ZipfSampler zipf(1 << 14, 1.1);
  std::vector<FlowKey> keys(100'003);
  for (FlowKey& key : keys) {
    key = FlowKey{static_cast<std::uint32_t>(zipf.sample(rng))};
  }
  for (const std::size_t shard_count : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shard_count));
    fcm::obs::MetricsRegistry registry;
    ShardedFcmFramework::Options options;
    options.framework = small_framework_options();
    options.shard_count = shard_count;
    options.metrics = &registry;
    ShardedFcmFramework sharded(options);
    for (std::size_t at = 0; at < keys.size(); at += 1000) {
      sharded.ingest(std::span<const FlowKey>(keys).subspan(
          at, std::min<std::size_t>(1000, keys.size() - at)));
    }
    const ShardedFcmFramework::EpochReport report = sharded.rotate();
    ASSERT_EQ(report.packets, keys.size());
    const double block = static_cast<double>(fcm::common::kBatchBlock);
    EXPECT_LE(report.fanout_imbalance,
              1.0 + static_cast<double>(shard_count) * block /
                        static_cast<double>(keys.size()));
    const std::vector<std::uint64_t> counts =
        shard_packet_counts(registry, shard_count);
    const auto [low, high] = std::minmax_element(counts.begin(), counts.end());
    EXPECT_LE(*high - *low, fcm::common::kBatchBlock);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
              keys.size());
  }
}

TEST(ShardedRuntime, ByteModeCountsBytesExactly) {
  const std::vector<Packet> trace = fixed_trace(0xbeef, 8000, 400);
  std::unordered_map<std::uint32_t, std::uint64_t> true_bytes;
  for (const Packet& packet : trace) true_bytes[packet.key.value] += packet.bytes;

  FcmFramework::Options fw = small_framework_options();
  fw.count_mode = FcmFramework::CountMode::kBytes;
  FcmFramework serial(fw);
  for (const Packet& packet : trace) serial.process(packet);

  ShardedFcmFramework::Options options;
  options.framework = fw;
  options.shard_count = 4;
  ShardedFcmFramework sharded(options);
  sharded.ingest(std::span<const Packet>(trace));
  sharded.rotate();

  const FcmFramework merged = sharded.merged_epoch();
  for (const auto& [key_value, bytes] : true_bytes) {
    const FlowKey key{key_value};
    ASSERT_EQ(merged.flow_size(key), serial.flow_size(key));
    // FCM never underestimates.
    ASSERT_GE(merged.flow_size(key), bytes);
  }
}

// --- heavy hitters across shards --------------------------------------------

// Shard replicas record candidates at ceil(T/N); the merged report must hold
// each flow at >= T exactly once and nothing below ceil(T/N) (candidates are
// re-qualified against the merged sketch at T, deduplicated). Split-flow
// re-qualification is covered by test_merge's split_flow case.
TEST(ShardedRuntime, HeavyHittersRequalifiedAtGlobalThreshold) {
  constexpr std::uint64_t kThreshold = 400;
  FcmFramework::Options fw = small_framework_options();
  fw.heavy_hitter_threshold = kThreshold;

  ShardedFcmFramework::Options options;
  options.framework = fw;
  options.shard_count = 4;
  ShardedFcmFramework sharded(options);

  const FlowKey heavy_flow{0x0a000001};   // 600 packets: above T
  const FlowKey small_flow{0x0a000002};   // 200 packets: below T globally
  const FlowKey tiny_flow{0x0a000003};    // 80 packets: below even ceil(T/N)
  for (int i = 0; i < 600; ++i) sharded.ingest(heavy_flow);
  for (int i = 0; i < 200; ++i) sharded.ingest(small_flow);
  for (int i = 0; i < 80; ++i) sharded.ingest(tiny_flow);

  const auto report = sharded.rotate();
  const auto& hh = report.heavy_hitters;
  EXPECT_TRUE(std::find(hh.begin(), hh.end(), heavy_flow) != hh.end())
      << "flow above T was dropped";
  EXPECT_TRUE(std::find(hh.begin(), hh.end(), tiny_flow) == hh.end());
  // No duplicates in the union of the shards' candidate sets.
  auto sorted = hh;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
      << "heavy-hitter report contains duplicates";
  // Every reported flow really is >= T on the merged counters.
  const FcmFramework merged = sharded.merged_epoch();
  for (const FlowKey key : hh) {
    EXPECT_GE(merged.flow_size(key), kThreshold);
  }
}

// A flow with exactly T packets, spread by block rotation so that no shard
// sees T of them, is still reported: some shard sees >= ceil(T/N) of its
// packets (pigeonhole, whatever the split) and records it as a candidate, and
// the merged estimate re-qualifies it at T.
TEST(ShardedRuntime, SplitFlowWithExactlyThresholdPacketsIsReported) {
  constexpr std::uint64_t kThreshold = 300;
  const FlowKey split_flow{0x0b000001};
  for (const std::size_t shard_count : {2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shard_count));
    fcm::obs::MetricsRegistry registry;
    ShardedFcmFramework::Options options;
    options.framework = small_framework_options();
    options.framework.heavy_hitter_threshold = kThreshold;
    options.shard_count = shard_count;
    options.metrics = &registry;
    ShardedFcmFramework sharded(options);

    // The split flow interleaved with 20 light flows of 5 packets each.
    std::vector<FlowKey> keys;
    for (std::uint64_t i = 0; i < kThreshold; ++i) {
      keys.push_back(split_flow);
      if (i % 3 == 0 && i / 3 < 100) {
        keys.push_back(FlowKey{0x0c000000u + static_cast<std::uint32_t>(i % 20)});
      }
    }
    sharded.ingest(std::span<const FlowKey>(keys));
    const auto report = sharded.rotate();

    // No shard saw T packets of any kind, so none saw T of the split flow.
    for (const std::uint64_t count :
         shard_packet_counts(registry, shard_count)) {
      EXPECT_LT(count, kThreshold);
    }
    const auto& hh = report.heavy_hitters;
    EXPECT_TRUE(std::find(hh.begin(), hh.end(), split_flow) != hh.end())
        << "flow with T packets split over " << shard_count
        << " shards was not reported";
    const FcmFramework merged = sharded.merged_epoch();
    for (const FlowKey key : hh) {
      EXPECT_GE(merged.flow_size(key), kThreshold) << "flow " << key.value;
    }
  }
}

// --- epoch double-buffering --------------------------------------------------

TEST(ShardedRuntime, BackToBackEpochsEachMatchTheirSerialWindow) {
  const std::vector<Packet> window_a = fixed_trace(11, 15000, 800);
  const std::vector<Packet> window_b = fixed_trace(22, 15000, 800);

  FcmFramework serial_a(small_framework_options());
  for (const Packet& packet : window_a) serial_a.process(packet.key);
  FcmFramework serial_b(small_framework_options());
  for (const Packet& packet : window_b) serial_b.process(packet.key);

  ShardedFcmFramework::Options options;
  options.framework = small_framework_options();
  options.shard_count = 4;
  options.retained_epochs = 2;
  ShardedFcmFramework sharded(options);

  for (const Packet& packet : window_a) sharded.ingest(packet.key);
  const auto report_a = sharded.rotate();
  for (const Packet& packet : window_b) sharded.ingest(packet.key);
  const auto report_b = sharded.rotate();

  EXPECT_EQ(report_a.index, 0u);
  EXPECT_EQ(report_b.index, 1u);
  EXPECT_EQ(report_a.packets, window_a.size());
  EXPECT_EQ(report_b.packets, window_b.size())
      << "second epoch leaked packets from the first (generation not cleared)";
  EXPECT_EQ(sharded.epochs_completed(), 2u);

  const FcmFramework merged_b = sharded.merged_epoch(0);
  const FcmFramework merged_a = sharded.merged_epoch(1);
  for (const FlowKey key : distinct_keys(window_a)) {
    ASSERT_EQ(merged_a.flow_size(key), serial_a.flow_size(key));
  }
  for (const FlowKey key : distinct_keys(window_b)) {
    ASSERT_EQ(merged_b.flow_size(key), serial_b.flow_size(key));
  }
  sharded.check_invariants();
}

// Cross-epoch analytics run on the collector side: each merged epoch ships
// as a wire frame into a 1-vantage AggregationService whose reference is the
// runtime's logical framework, and the service diffs consecutive epochs.
fcm::agg::AggregationService::Options collector_options(
    const FcmFramework::Options& framework, bool analyze_on_publish) {
  fcm::agg::AggregationService::Options options;
  options.reference = framework;
  options.heavy_change_threshold = framework.heavy_hitter_threshold;
  options.analyze_on_publish = analyze_on_publish;
  return options;
}

// Delivers the runtime's latest merged epoch (runtime epoch `index`; service
// epochs start at 1) and returns the view it publishes.
std::shared_ptr<const fcm::agg::NetworkView> deliver_latest(
    const ShardedFcmFramework& sharded, std::size_t index,
    fcm::agg::AggregationService& service) {
  fcm::agg::SnapshotEnvelope envelope;
  envelope.epoch = index + 1;
  envelope.payload = fcm::agg::WireCodec::serialize(sharded.merged_epoch());
  EXPECT_EQ(service.deliver(std::move(envelope)),
            fcm::agg::DeliveryStatus::kAccepted);
  return service.query_plane().current();
}

std::vector<FlowKey> sorted(std::vector<FlowKey> keys) {
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(ShardedRuntime, EpochsDeliveredToServiceReportHeavyChanges) {
  {
    // Surging / vanishing / steady flows across two epochs at 2 shards.
    constexpr std::uint64_t kThreshold = 300;
    ShardedFcmFramework::Options options;
    options.framework = small_framework_options();
    options.framework.heavy_hitter_threshold = kThreshold;
    options.shard_count = 2;
    ShardedFcmFramework sharded(options);
    fcm::agg::AggregationService service(
        collector_options(options.framework, false));

    const FlowKey surging{0xc0ffee01};
    const FlowKey steady{0xc0ffee02};
    const FlowKey vanishing{0xc0ffee03};
    // Epoch 0: steady and vanishing are heavy, surging absent.
    for (int i = 0; i < 500; ++i) sharded.ingest(steady);
    for (int i = 0; i < 500; ++i) sharded.ingest(vanishing);
    const auto report0 = sharded.rotate();
    const auto view0 = deliver_latest(sharded, report0.index, service);
    ASSERT_NE(view0, nullptr);
    EXPECT_TRUE(view0->heavy_changes.empty()) << "no previous epoch to diff";
    // Epoch 1: surging appears at 600, vanishing drops to 0, steady stays
    // at ~500 (delta below T).
    for (int i = 0; i < 600; ++i) sharded.ingest(surging);
    for (int i = 0; i < 500; ++i) sharded.ingest(steady);
    const auto report1 = sharded.rotate();
    const auto view1 = deliver_latest(sharded, report1.index, service);
    ASSERT_NE(view1, nullptr);
    EXPECT_EQ(sorted(view1->heavy_hitters), sorted(report1.heavy_hitters));

    const auto& hc = view1->heavy_changes;
    EXPECT_TRUE(std::find(hc.begin(), hc.end(), surging) != hc.end())
        << "flow surging by 600 (> T=300) across epochs not flagged";
    EXPECT_TRUE(std::find(hc.begin(), hc.end(), vanishing) != hc.end())
        << "flow dropping by 500 (> T=300) across epochs not flagged";
    EXPECT_TRUE(std::find(hc.begin(), hc.end(), steady) == hc.end())
        << "steady flow (delta ~0) wrongly flagged as heavy change";
  }
  {
    // The serial Figure-1 loop on realistic traffic: two synthetic windows
    // with shifted flow sizes through a 1-shard runtime, heavy changes
    // scored against the exact ground truth, EM run at publish.
    fcm::flow::SyntheticTraceConfig config;
    config.packet_count = 80'000;
    config.flow_count = 8'000;
    const fcm::flow::WindowPair pair = fcm::flow::make_window_pair(config, 0.5);

    ShardedFcmFramework::Options options;
    options.framework = small_framework_options();
    options.framework.fcm = FcmConfig::for_memory(120'000, 2, 8, {8, 16, 32});
    options.framework.heavy_hitter_threshold = config.packet_count / 2000;
    options.shard_count = 1;
    ShardedFcmFramework sharded(options);
    fcm::agg::AggregationService service(
        collector_options(options.framework, true));

    sharded.ingest(pair.window_a.packets());
    deliver_latest(sharded, sharded.rotate().index, service);
    sharded.ingest(pair.window_b.packets());
    const auto view = deliver_latest(sharded, sharded.rotate().index, service);
    ASSERT_NE(view, nullptr);

    ASSERT_TRUE(view->report.has_value());
    EXPECT_GT(view->report->estimated_flows, 0.0);
    const auto actual = fcm::flow::true_heavy_changes(
        fcm::flow::GroundTruth(pair.window_a),
        fcm::flow::GroundTruth(pair.window_b),
        options.framework.heavy_hitter_threshold);
    ASSERT_FALSE(actual.empty()) << "fixture produced no true heavy changes";
    const auto scores =
        fcm::metrics::classification_scores(view->heavy_changes, actual);
    EXPECT_GT(scores.f1, 0.8);
  }
}

TEST(ShardedRuntime, RotateAsyncDoesNotStallIngest) {
  ShardedFcmFramework::Options options;
  options.framework = small_framework_options();
  options.shard_count = 2;
  // A large sketch makes the background merge slow enough that ingest
  // overlaps it on any scheduler.
  options.framework.fcm = FcmConfig::for_memory(8 << 20, 2, 8, {8, 16, 32});
  ShardedFcmFramework sharded(options);

  const std::vector<Packet> window_a = fixed_trace(7, 10000, 500);
  for (const Packet& packet : window_a) sharded.ingest(packet.key);
  const std::size_t epoch = sharded.rotate_async();
  // Ingest the next window immediately — before the merge completed.
  const std::vector<Packet> window_b = fixed_trace(8, 10000, 500);
  for (const Packet& packet : window_b) sharded.ingest(packet.key);

  const auto report_a = sharded.wait_epoch(epoch);
  EXPECT_EQ(report_a.packets, window_a.size());
  EXPECT_GT(report_a.cardinality, 0.0);

  const auto report_b = sharded.rotate();
  EXPECT_EQ(report_b.packets, window_b.size())
      << "packets ingested during the async merge were lost or double-counted";
}

TEST(ShardedRuntime, RetainedEpochWindowSlidesAndExpiredEpochsThrow) {
  ShardedFcmFramework::Options options;
  options.framework = small_framework_options();
  options.shard_count = 2;
  options.retained_epochs = 2;
  ShardedFcmFramework sharded(options);

  for (std::size_t epoch = 0; epoch < 4; ++epoch) {
    sharded.ingest(FlowKey{static_cast<std::uint32_t>(epoch + 1)});
    sharded.rotate();
  }
  EXPECT_EQ(sharded.epochs_completed(), 4u);
  EXPECT_NO_THROW(sharded.merged_epoch(0));
  EXPECT_NO_THROW(sharded.merged_epoch(1));
  EXPECT_THROW(sharded.merged_epoch(2), ContractViolation);
  // wait_epoch on an already-merged, still-retained epoch returns instantly.
  EXPECT_EQ(sharded.wait_epoch(3).index, 3u);
  // Expired epoch: merged but evicted from the history window.
  EXPECT_THROW(sharded.wait_epoch(0), ContractViolation);
  EXPECT_EQ(sharded.merged_epoch().flow_size(FlowKey{4}), 1u);
}

// --- backpressure and teardown ----------------------------------------------

// The driver memcpys a span into the rings far faster than four workers
// apply it, so 2^18 keys overrun the 4 x 256 blocks the rings hold: ingest
// spins on full rings, and every key still lands exactly once.
TEST(ShardedRuntime, BackpressureOnFullRingsLosesNothing) {
  fcm::obs::MetricsRegistry registry;
  ShardedFcmFramework::Options options;
  options.framework = small_framework_options();
  options.shard_count = 4;
  options.metrics = &registry;
  ShardedFcmFramework sharded(options);

  const std::vector<Packet> trace = fixed_trace(0x7e57, 1 << 18, 1000);
  std::vector<FlowKey> keys;
  keys.reserve(trace.size());
  for (const Packet& packet : trace) keys.push_back(packet.key);
  FcmFramework serial(small_framework_options());
  for (const FlowKey key : keys) serial.process(key);
  sharded.ingest(std::span<const FlowKey>(keys));
  const auto report = sharded.rotate();

  EXPECT_GT(registry.counter("fcm_runtime_backpressure_spins_total").value(),
            0u);
  EXPECT_EQ(report.packets, trace.size());
  const FcmFramework merged = sharded.merged_epoch();
  for (const FlowKey key : distinct_keys(trace)) {
    ASSERT_EQ(merged.flow_size(key), serial.flow_size(key));
  }
}

TEST(ShardedRuntime, StopIsIdempotentAndDestructorIsSafeWithoutRotation) {
  {
    ShardedFcmFramework::Options options;
    options.framework = small_framework_options();
    options.shard_count = 2;
    ShardedFcmFramework sharded(options);
    for (int i = 0; i < 1000; ++i) {
      sharded.ingest(FlowKey{static_cast<std::uint32_t>(i)});
    }
    // No rotation: destructor must still drain and join cleanly.
  }
  {
    ShardedFcmFramework::Options options;
    options.framework = small_framework_options();
    options.shard_count = 2;
    ShardedFcmFramework sharded(options);
    sharded.ingest(FlowKey{1});
    sharded.rotate();
    sharded.stop();
    sharded.stop();  // idempotent
    sharded.check_invariants();
    // Results remain queryable after stop().
    EXPECT_EQ(sharded.merged_epoch().flow_size(FlowKey{1}), 1u);
    EXPECT_EQ(sharded.epochs_completed(), 1u);
  }
}

// stop() closes the un-rotated tail as a final epoch instead of discarding
// it: every packet lands in merged_epoch(0), with the heavy-flow cache's
// residents and the staged partial blocks included. The cache-off leg counts
// packets; the cache leg counts bytes, the only mode the cache runs in. The
// tail falls in generation 0 without an earlier rotation and in generation 1
// after one.
TEST(ShardedRuntime, StopClosesUnrotatedTailAsFinalEpoch) {
  const std::vector<Packet> trace = fixed_trace(0x57a1, 12000, 600);
  std::uint64_t trace_bytes = 0;
  for (const Packet& packet : trace) trace_bytes += packet.bytes;

  for (const std::size_t cache_entries : {0ul, 256ul}) {
    FcmFramework::Options fw = small_framework_options();
    if (cache_entries > 0) fw.count_mode = FcmFramework::CountMode::kBytes;
    FcmFramework serial(fw);
    for (const Packet& packet : trace) serial.process(packet);
    for (const std::size_t earlier_epochs : {0ul, 1ul}) {
      SCOPED_TRACE("cache_entries=" + std::to_string(cache_entries) +
                   " earlier_epochs=" + std::to_string(earlier_epochs));
      ShardedFcmFramework::Options options;
      options.framework = fw;
      options.shard_count = 3;
      options.cache_entries = cache_entries;
      ShardedFcmFramework sharded(options);
      for (std::size_t e = 0; e < earlier_epochs; ++e) {
        sharded.ingest(Packet{FlowKey{7}, 1, 0});
        sharded.rotate();
      }
      for (const Packet& packet : trace) sharded.ingest(packet);
      sharded.stop();

      ASSERT_EQ(sharded.epochs_completed(), earlier_epochs + 1);
      const ShardedFcmFramework::EpochReport tail =
          sharded.wait_epoch(earlier_epochs);
      if (cache_entries > 0) {
        EXPECT_EQ(tail.bytes, trace_bytes);
      } else {
        EXPECT_EQ(tail.packets, trace.size());
      }
      const FcmFramework merged = sharded.merged_epoch(0);
      for (const FlowKey key : distinct_keys(trace)) {
        ASSERT_EQ(merged.flow_size(key), serial.flow_size(key));
      }
      sharded.check_invariants();
    }
  }
}

// wait_epoch() may run ahead of the driver, but once stop() has finished an
// epoch that never closed can never be merged: waiting on it throws instead
// of blocking forever, both for a caller already blocked when stop() ends
// and for one that arrives afterwards.
TEST(ShardedRuntime, WaitEpochOnAnEpochThatNeverClosedThrowsAfterStop) {
  ShardedFcmFramework::Options options;
  options.framework = small_framework_options();
  options.shard_count = 2;
  ShardedFcmFramework sharded(options);

  std::size_t ahead_index = 99;
  std::thread ahead([&] { ahead_index = sharded.wait_epoch(0).index; });
  bool blocked_threw = false;
  std::thread blocked([&] {
    try {
      sharded.wait_epoch(1);
    } catch (const ContractViolation&) {
      blocked_threw = true;
    }
  });
  // Give both waiters time to block; either order is correct.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sharded.ingest(Packet{FlowKey{7}, 1, 0});
  EXPECT_EQ(sharded.rotate_async(), 0u);
  ahead.join();
  EXPECT_EQ(ahead_index, 0u);

  sharded.stop();  // no traffic since the rotation: epoch 1 never closes
  blocked.join();
  EXPECT_TRUE(blocked_threw);
  EXPECT_EQ(sharded.epochs_completed(), 1u);
  EXPECT_THROW(sharded.wait_epoch(1), ContractViolation);
  EXPECT_EQ(sharded.wait_epoch(0).index, 0u);
}

// --- heavy-flow cache counters ---------------------------------------------

// The driver-side cache publishes cumulative hit/miss/eviction counters at
// every rotation and at stop(). Every nonzero key offered is either a hit or
// a miss (key 0 bypasses the cache), and demotions at each rotation hand the
// resident flows to the closing epoch, so the merged epochs together count
// every byte ingested.
TEST(ShardedRuntime, CacheCountersCoverEveryOfferedKey) {
  fcm::obs::MetricsRegistry registry;
  ShardedFcmFramework::Options options;
  options.framework = small_framework_options();
  options.framework.count_mode = FcmFramework::CountMode::kBytes;
  options.shard_count = 2;
  options.cache_entries = 64;  // small: the Zipf tail keeps evicting
  options.metrics = &registry;
  ShardedFcmFramework sharded(options);

  const std::vector<Packet> trace = fixed_trace(0xcace, 24000, 1500);
  const std::span<const Packet> all(trace);
  const std::size_t quarter = trace.size() / 4;

  std::uint64_t ingested_bytes = 0;
  std::uint64_t nonzero_offered = 0;
  const auto feed = [&](std::span<const Packet> window) {
    sharded.ingest(window.first(window.size() / 2));
    for (const Packet& packet : window.subspan(window.size() / 2)) {
      sharded.ingest(packet);
    }
    const Packet bypass{FlowKey{0}, 100, 0};  // key 0 bypasses the cache
    sharded.ingest(bypass);
    ingested_bytes += bypass.bytes;
    for (const Packet& packet : window) {
      ingested_bytes += packet.bytes;
      nonzero_offered += packet.key.value != 0 ? 1 : 0;
    }
  };

  std::uint64_t epoch_bytes = 0;
  for (std::size_t w = 0; w < 3; ++w) {
    feed(all.subspan(w * quarter, quarter));
    epoch_bytes += sharded.rotate().bytes;
  }
  feed(all.subspan(3 * quarter));  // un-rotated tail, closed by stop()
  sharded.stop();

  ASSERT_EQ(sharded.epochs_completed(), 4u);
  epoch_bytes += sharded.wait_epoch(3).bytes;
  EXPECT_EQ(epoch_bytes, ingested_bytes);

  const std::uint64_t hits =
      registry.counter("fcm_datapath_cache_hits_total").value();
  const std::uint64_t misses =
      registry.counter("fcm_datapath_cache_misses_total").value();
  const std::uint64_t evictions =
      registry.counter("fcm_datapath_cache_evictions_total").value();
  EXPECT_EQ(hits + misses, nonzero_offered);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_LE(evictions, misses);
  sharded.check_invariants();
}

// Shard workers keep plain per-generation tallies; the coordinator adds them
// to the shard counters as it merges each epoch, before wait_epoch() can
// return it. So after every rotate() the counters hold exactly the epochs so
// far, and each ring gauge holds what the ring showed at that merge.
TEST(ShardedRuntime, ShardSeriesMatchEpochTalliesAfterEveryRotation) {
  constexpr std::size_t kShards = 2;
  constexpr double kRingBlocks = 256;  // DESIGN.md §13.3
  fcm::obs::MetricsRegistry registry;
  ShardedFcmFramework::Options options;
  options.framework = small_framework_options();
  options.framework.count_mode = FcmFramework::CountMode::kBytes;
  options.shard_count = kShards;
  options.cache_entries = 64;
  options.metrics = &registry;
  ShardedFcmFramework sharded(options);

  const std::vector<Packet> trace = fixed_trace(0x7a11, 24000, 1500);
  const std::span<const Packet> all(trace);
  constexpr std::size_t kEpochs = 6;
  const std::size_t window = trace.size() / kEpochs;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    sharded.ingest(all.subspan(e * window, window));
    const ShardedFcmFramework::EpochReport report = sharded.rotate();
    packets += report.packets;
    bytes += report.bytes;

    const auto sum = [](const std::vector<std::uint64_t>& values) {
      return std::accumulate(values.begin(), values.end(), std::uint64_t{0});
    };
    EXPECT_EQ(sum(shard_packet_counts(registry, kShards)), packets);
    EXPECT_EQ(sum(shard_counter_values(
                  registry, "fcm_runtime_shard_bytes_total", kShards)),
              bytes);
    const std::vector<double> high_water = sharded.queue_high_water();
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::vector<fcm::obs::MetricLabel> shard = {
          {"shard", std::to_string(s)}};
      EXPECT_EQ(
          registry.gauge("fcm_runtime_queue_high_water_blocks", shard).value(),
          high_water[s] * kRingBlocks)
          << "shard " << s;
      const double depth =
          registry.gauge("fcm_runtime_queue_depth", shard).value();
      EXPECT_GE(depth, 0.0);
      EXPECT_LE(depth, kRingBlocks * fcm::common::kBatchBlock);
    }
  }
  std::uint64_t ingested_bytes = 0;
  for (const Packet& packet : all.first(kEpochs * window)) {
    ingested_bytes += packet.bytes;
  }
  EXPECT_EQ(bytes, ingested_bytes);
}

// A resident flow heavier than a pair's u32 weight slot is demoted at
// rotation as several pairs; the shard's counters sum them back exactly.
TEST(ShardedRuntime, CacheDemotionHeavierThanU32SumsBackExactly) {
  FcmFramework::Options fw = small_framework_options();
  fw.count_mode = FcmFramework::CountMode::kBytes;
  ShardedFcmFramework::Options options;
  options.framework = fw;
  options.shard_count = 2;
  options.cache_entries = 64;
  options.metrics = nullptr;
  ShardedFcmFramework sharded(options);

  const FlowKey key{0x5eed};
  const std::vector<Packet> packets = {{key, 4'000'000'000u, 0},
                                       {key, 4'000'000'000u, 1},
                                       {key, 3'000'000'000u, 2}};
  FcmFramework serial(fw);
  for (const Packet& packet : packets) serial.process(packet);
  sharded.ingest(std::span<const Packet>(packets));
  const ShardedFcmFramework::EpochReport report = sharded.rotate();
  EXPECT_EQ(report.bytes, 11'000'000'000u);

  const FcmFramework merged = sharded.merged_epoch();
  expect_same_counter_state(merged, serial);
  EXPECT_EQ(merged.flow_size(key), serial.flow_size(key));
}

// --- partial blocks -----------------------------------------------------------

// Trickle traffic: far fewer keys than a block holds. The partial block stays
// staged while the epoch is open and is published at rotation, ahead of the
// marker, so every key lands in the epoch it was ingested into.
TEST(ShardedRuntime, TrickleReachesItsEpochAtRotation) {
  fcm::obs::MetricsRegistry registry;
  ShardedFcmFramework::Options options;
  options.framework = small_framework_options();
  options.shard_count = 1;
  options.metrics = &registry;
  ShardedFcmFramework sharded(options);

  // The series the runtime publishes into (idempotent lookup by name+labels).
  fcm::obs::Counter& partial_flushes =
      registry.counter("fcm_runtime_partial_flushes_total");

  for (std::uint32_t i = 1; i <= 6; ++i) sharded.ingest(FlowKey{i});
  EXPECT_EQ(partial_flushes.value(), 0u);

  const auto report = sharded.rotate();
  EXPECT_EQ(partial_flushes.value(), 1u);
  EXPECT_EQ(report.packets, 6u);
  for (std::uint32_t i = 1; i <= 6; ++i) {
    EXPECT_EQ(sharded.merged_epoch().flow_size(FlowKey{i}), 1u);
  }
}

// Byte mode stages (key, bytes) pairs, so a block holds kBatchBlock / 2 of
// them. The 32nd pair fills a block, which is published at once as full; a
// 33rd pair opens the next block, which rotation publishes as partial.
TEST(ShardedRuntime, PairBlocksHoldHalfABatchBlock) {
  constexpr std::uint32_t kPairsPerBlock = fcm::common::kBatchBlock / 2;
  fcm::obs::MetricsRegistry registry;
  ShardedFcmFramework::Options options;
  options.framework = small_framework_options();
  options.framework.count_mode = FcmFramework::CountMode::kBytes;
  options.shard_count = 1;
  options.metrics = &registry;
  ShardedFcmFramework sharded(options);

  fcm::obs::Counter& blocks_published =
      registry.counter("fcm_runtime_blocks_published_total");
  fcm::obs::Counter& partial_flushes =
      registry.counter("fcm_runtime_partial_flushes_total");

  std::uint64_t total_bytes = 0;
  const auto ingest = [&](std::uint32_t i) {
    const Packet packet{FlowKey{i}, 100 + i, 0};
    sharded.ingest(packet);
    total_bytes += packet.bytes;
  };
  for (std::uint32_t i = 1; i <= kPairsPerBlock; ++i) ingest(i);
  EXPECT_EQ(blocks_published.value(), 1u);
  EXPECT_EQ(partial_flushes.value(), 0u);

  ingest(kPairsPerBlock + 1);
  const auto report = sharded.rotate();
  EXPECT_EQ(blocks_published.value(), 2u);
  EXPECT_EQ(partial_flushes.value(), 1u);
  EXPECT_EQ(report.packets, kPairsPerBlock + 1u);
  EXPECT_EQ(report.bytes, total_bytes);
}

// --- occupancy ----------------------------------------------------------------

TEST(ShardedRuntime, QueueHighWaterReportsPerShardFractions) {
  ShardedFcmFramework::Options options;
  options.framework = small_framework_options();
  options.shard_count = 2;
  ShardedFcmFramework sharded(options);
  const std::vector<Packet> trace = fixed_trace(0x44, 20000, 800);
  for (const Packet& packet : trace) sharded.ingest(packet.key);
  sharded.rotate();

  const std::vector<double> high_water = sharded.queue_high_water();
  ASSERT_EQ(high_water.size(), 2u);
  for (const double fraction : high_water) {
    EXPECT_GT(fraction, 0.0) << "blocks were published, high water must move";
    EXPECT_LE(fraction, 1.0);
  }
}

// --- option validation --------------------------------------------------------

TEST(ShardedRuntime, RejectsInvalidOptions) {
  const auto make = [](auto mutate) {
    ShardedFcmFramework::Options options;
    options.framework = small_framework_options();
    mutate(options);
    return ShardedFcmFramework(options);
  };
  EXPECT_THROW(make([](auto& o) { o.shard_count = 0; }), ContractViolation);
  EXPECT_THROW(make([](auto& o) { o.shard_count = 1000; }), ContractViolation);
  EXPECT_THROW(make([](auto& o) { o.retained_epochs = 0; }), ContractViolation);
  // The heavy-flow cache counts bytes: packet mode cannot run it.
  EXPECT_THROW(make([](auto& o) { o.cache_entries = 64; }), ContractViolation);
}

TEST(ShardedRuntime, ByteModeRejectsZeroBytePackets) {
  ShardedFcmFramework::Options options;
  options.framework = small_framework_options();
  options.framework.count_mode = FcmFramework::CountMode::kBytes;
  options.shard_count = 2;
  ShardedFcmFramework sharded(options);
  EXPECT_THROW(sharded.ingest(Packet{FlowKey{1}, 0, 0}), ContractViolation);
  sharded.ingest(Packet{FlowKey{1}, 100, 0});
  sharded.rotate();
  EXPECT_EQ(sharded.merged_epoch().flow_size(FlowKey{1}), 100u);
}

TEST(ShardedRuntime, ByteModeRejectsBareKeys) {
  // A key carries no byte count: byte mode ingests packets only.
  ShardedFcmFramework::Options options;
  options.framework = small_framework_options();
  options.framework.count_mode = FcmFramework::CountMode::kBytes;
  options.shard_count = 2;
  ShardedFcmFramework sharded(options);
  const std::vector<FlowKey> keys = {FlowKey{1}, FlowKey{2}};
  EXPECT_THROW(sharded.ingest(FlowKey{1}), ContractViolation);
  EXPECT_THROW(sharded.ingest(std::span<const FlowKey>(keys)),
               ContractViolation);
}

}  // namespace
