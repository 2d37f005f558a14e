// Lifecycle soak for the sharded ingestion runtime (DESIGN.md §7, §13; CI
// runs this under TSan in the tsan job, with a hard ctest TIMEOUT). Each
// configuration runs one long-lived runtime that rotates after every one of
// thousands of ingest spans of seeded lengths around the block size, then
// builds and tears down a series of runtimes with seeded random shard
// counts; each of those sees hundreds of spans and rotate_async() calls, and
// stop() lands at a seeded random point: mid-epoch (an un-rotated tail),
// right after a rotation (one still in flight), or before any traffic.
//
// Checked on every runtime:
//   - a conservation ledger: the bytes (byte mode) or packets (packet mode)
//     ingested equal the sum over every epoch report, so neither a rotation
//     nor stop() loses or duplicates traffic, cache demotions included;
//   - no epoch index is lost: rotate_async() returns consecutive indices,
//     every report carries the index it was asked for, and stop() adds
//     exactly one tail epoch iff traffic arrived after the last rotation.
// Checked in unsanitized builds only, where the allocator is the program's
// own: resident memory read from /proc/self/statm stays flat while the
// long-lived runtime rotates past its warm-up, and across the series of
// runtimes, so nothing accumulates per rotation or per runtime.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "flow/flow_key.h"
#include "flow/packet.h"
#include "framework/fcm_framework.h"
#include "property_harness.h"
#include "runtime/sharded_framework.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FCM_SOAK_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FCM_SOAK_SANITIZED 1
#endif
#endif
#ifndef FCM_SOAK_SANITIZED
#define FCM_SOAK_SANITIZED 0
#endif

namespace {

using fcm::flow::FlowKey;
using fcm::flow::Packet;
using fcm::framework::FcmFramework;
using fcm::runtime::ShardedFcmFramework;

constexpr std::uint64_t kSeed = 0x50a4;
constexpr std::size_t kLongRounds = 2000;  // the long-lived runtime's rotations
constexpr std::size_t kWarmRounds = 200;   // its warm-up, before the RSS baseline
constexpr std::size_t kRuntimes = 9;       // short-lived runtimes per configuration
constexpr std::size_t kMaxRounds = 400;    // ingest-then-maybe-rotate rounds
// Packets per ingest call, drawn per span. The runtime's blocks are fixed at
// common::kBatchBlock = 64 keys (32 pairs in byte mode), so these lengths (a
// lone packet, one short of a block, exactly one, one past it, ten blocks)
// leave full, ragged and partial blocks at every rotation.
constexpr std::size_t kSpanLengths[] = {1, 63, 64, 65, 640};
// Allowed RSS growth after warm-up (it reads ~0.1 MiB on x86-64 glibc). One
// merged epoch of the small sketch is ~37 KiB, so keeping one per rotation
// would add ~65 MiB over the long-lived runtime.
constexpr long kRssSlackBytes = 8L << 20;

long resident_bytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return -1;
  long pages_total = 0;
  long pages_resident = -1;
  if (std::fscanf(statm, "%ld %ld", &pages_total, &pages_resident) != 2) {
    pages_resident = -1;
  }
  std::fclose(statm);
  return pages_resident < 0 ? -1 : pages_resident * sysconf(_SC_PAGESIZE);
}

struct SoakConfig {
  bool byte_mode = false;
  std::size_t cache_entries = 0;
};

// RSS of a live runtime at round kWarmRounds and at its last round.
struct RssSample {
  long warm = -1;
  long end = -1;
};

struct Totals {
  std::size_t rotations = 0;
  std::size_t epochs = 0;
};

// One runtime from construction to stop(), with the ledger checked at the
// end: `rounds` ingest spans, each followed by rotate_async() with
// probability rotate_per_mille / 1000, then, with `tail`, one more span
// that no rotation closes. With `rss` set, samples the RSS of the live
// runtime into it. Returns how many rotations and epochs it went through.
Totals run_one(const SoakConfig& soak, std::mt19937_64& rng, std::size_t rounds,
               std::uint64_t rotate_per_mille, bool tail,
               RssSample* rss = nullptr) {
  FcmFramework::Options fw;
  fw.fcm = fcm::proptest::small_fcm_config(kSeed);
  fw.metrics = nullptr;
  if (soak.byte_mode) fw.count_mode = FcmFramework::CountMode::kBytes;

  ShardedFcmFramework::Options options;
  options.framework = fw;
  options.shard_count = 1 + rng() % 4;
  options.cache_entries = soak.cache_entries;
  options.metrics = nullptr;
  ShardedFcmFramework runtime(options);

  std::uniform_int_distribution<std::uint32_t> packet_bytes(1, 1500);

  std::uint64_t in_total = 0;     // bytes or packets, by mode
  std::uint64_t epoch_total = 0;  // the same, summed over epoch reports
  std::uint64_t since_rotation = 0;
  std::size_t next_index = 0;     // index the next rotation must return
  std::size_t reports_read = 0;   // epochs [0, reports_read) are in epoch_total
  const auto read_report = [&](std::size_t index) {
    const ShardedFcmFramework::EpochReport report = runtime.wait_epoch(index);
    EXPECT_EQ(report.index, index);
    epoch_total += soak.byte_mode ? report.bytes : report.packets;
    ++reports_read;
  };

  std::vector<Packet> span;
  const auto ingest_span = [&] {
    const std::size_t length = kSpanLengths[rng() % std::size(kSpanLengths)];
    const auto keys = fcm::proptest::random_keys(rng(), length, 500);
    span.clear();
    for (const FlowKey key : keys) span.push_back(Packet{key, packet_bytes(rng), 0});
    runtime.ingest(std::span<const Packet>(span));
    for (const Packet& packet : span) {
      const std::uint64_t amount = soak.byte_mode ? packet.bytes : 1;
      in_total += amount;
      since_rotation += amount;
    }
  };
  for (std::size_t round = 0; round < rounds; ++round) {
    if (rss != nullptr && round == kWarmRounds) rss->warm = resident_bytes();
    ingest_span();
    if (rng() % 1000 < rotate_per_mille) {
      const std::size_t index = runtime.rotate_async();
      EXPECT_EQ(index, next_index);
      ++next_index;
      since_rotation = 0;
      // rotate_async() returns only after the previous epoch merged, so its
      // report is ready and still retained.
      if (index > 0) read_report(index - 1);
    }
  }
  if (tail) ingest_span();
  if (rss != nullptr) rss->end = resident_bytes();
  runtime.stop();
  if (rng() % 2 == 0) runtime.stop();  // idempotent

  const std::size_t expected_epochs = next_index + (since_rotation > 0 ? 1 : 0);
  EXPECT_EQ(runtime.epochs_completed(), expected_epochs);
  if (runtime.epochs_completed() != expected_epochs) return {next_index, 0};
  // At most the last rotated epoch and the tail are still unread.
  while (reports_read < expected_epochs) read_report(reports_read);
  EXPECT_EQ(epoch_total, in_total)
      << "shards " << options.shard_count << " rounds " << rounds;
  return {next_index, expected_epochs};
}

void soak(const SoakConfig& config, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  RssSample long_lived;
  Totals totals = run_one(config, rng, kLongRounds, 1000, false, &long_lived);
  const long series_rss = resident_bytes();
  for (std::size_t r = 0; r < kRuntimes; ++r) {
    SCOPED_TRACE("runtime " + std::to_string(r));
    // stop() lands after whatever the last round did, behind an un-rotated
    // tail, or before any traffic at all.
    const std::size_t rounds = r % 3 == 2 ? 0 : rng() % (kMaxRounds + 1);
    const Totals one =
        run_one(config, rng, rounds, 500 + rng() % 500, r % 3 == 1);
    totals.rotations += one.rotations;
    totals.epochs += one.epochs;
  }
  EXPECT_GT(totals.rotations, kLongRounds);
  EXPECT_GE(totals.epochs, totals.rotations);
  if (FCM_SOAK_SANITIZED) return;
  const long end_rss = resident_bytes();
  ASSERT_TRUE(long_lived.warm > 0 && long_lived.end > 0 && series_rss > 0 &&
              end_rss > 0)
      << "cannot read /proc/self/statm";
  EXPECT_LE(long_lived.end - long_lived.warm, kRssSlackBytes)
      << "RSS grew from " << long_lived.warm << " to " << long_lived.end
      << " bytes while one runtime rotated " << kLongRounds - kWarmRounds
      << " times after warm-up";
  EXPECT_LE(end_rss - series_rss, kRssSlackBytes)
      << "RSS grew from " << series_rss << " to " << end_rss
      << " bytes over " << kRuntimes << " runtimes";
}

TEST(RuntimeSoak, PacketModeLedgerHoldsAcrossRotationsAndStops) {
  soak(SoakConfig{false, 0}, kSeed + 1);
}

TEST(RuntimeSoak, ByteModeLedgerHoldsWithCacheOff) {
  soak(SoakConfig{true, 0}, kSeed + 2);
}

TEST(RuntimeSoak, ByteModeLedgerHoldsWithCacheOn) {
  // A small cache keeps evicting on the skewed keys, and every rotation and
  // stop() demotes its residents into the closing epoch.
  soak(SoakConfig{true, 64}, kSeed + 3);
}

}  // namespace
