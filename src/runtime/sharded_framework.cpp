#include "runtime/sharded_framework.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/block_queue.h"
#include "common/contracts.h"
#include "common/hash.h"

namespace fcm::runtime {

namespace {

// Block payload tags (BlockQueue header `kind`, DESIGN.md §13). The queue is
// kind-agnostic; the runtime's producer/worker pair agrees on these.
enum BlockKind : std::uint32_t {
  // `count` FlowKeys, each one packet — fed to process_batch in place.
  kUnitKeys = 0,
  // count/2 interleaved (key, u32 bytes) pairs: byte-mode packets and every
  // heavy-flow-cache demotion, fed to one weighted process_batch call.
  kPairs = 1,
  // In-band epoch marker (count == 0).
  kMarker = 2,
};

// Hand-off geometry (DESIGN.md §13.3). A block holds one batch-kernel run
// (32 pairs in byte mode), and each shard ring holds kRingBlocks of them.
// The operating-point sweep in EXPERIMENTS.md measured throughput levelling
// off at this block size and flat across ring depths.
constexpr std::size_t kBlockItems = common::kBatchBlock;
constexpr std::size_t kRingBlocks = 256;
// A pair never splits across blocks, so pair blocks fill exactly too.
static_assert(kBlockItems % 2 == 0);

// Heaviest weight one pair carries; heavier cache demotions split.
constexpr std::uint32_t kMaxPairWeight =
    std::numeric_limits<std::uint32_t>::max();

}  // namespace

// Registry series the runtime writes (DESIGN.md §8), resolved once at
// construction. Only two threads write them: the driver (block and
// backpressure counters, once per block at most) and the coordinator, which
// publishes each merged epoch's tallies. Shard workers write none.
struct ShardedFcmFramework::Instruments {
  obs::Counter* backpressure_spins = nullptr;   // driver spins on full rings
  obs::Counter* blocks_published = nullptr;     // block publications (all kinds)
  obs::Counter* partial_flushes = nullptr;      // blocks published not full
  obs::Counter* rotations = nullptr;            // rotate_async() calls
  obs::Counter* epochs_merged = nullptr;        // epochs published
  obs::Counter* overflow_promotions = nullptr;  // FCM overflow trips (merged)
  obs::Counter* cardinality_saturations = nullptr;
  obs::Histogram* merge_seconds = nullptr;          // coordinator merge time
  obs::Histogram* rotation_wait_seconds = nullptr;  // driver stall per rotate
  obs::Gauge* epoch_packets = nullptr;          // last epoch's packet count
  obs::Gauge* fanout_imbalance = nullptr;       // last epoch max/mean ratio
  // Per-shard series (label shard=<index>), set by the coordinator from the
  // drained generation's tallies and the ring's occupancy at each merge.
  struct PerShard {
    obs::Counter* packets = nullptr;
    obs::Counter* bytes = nullptr;  // kBytes mode; stays 0 otherwise
    obs::Gauge* queue_depth = nullptr;             // staged items
    obs::Gauge* queue_high_water_blocks = nullptr;
  };
  std::vector<PerShard> shards;
};

struct ShardedFcmFramework::Shard {
  Shard(std::size_t shard_index,
        const framework::FcmFramework::Options& replica_options)
      : index(shard_index) {
    replicas.reserve(2);
    replicas.emplace_back(replica_options);
    replicas.emplace_back(replica_options);
    // Allocated after the replicas: the other order shifts the heap layout
    // and measured 4 MiB more peak RSS on perfbench capture_bytes.
    ring = std::make_unique<common::BlockQueue<flow::FlowKey>>(kRingBlocks,
                                                               kBlockItems);
  }

  const std::size_t index;  // shard number (rotation slot + label value)
  // The driver -> worker SPSC block ring; carries data and epoch markers.
  std::unique_ptr<common::BlockQueue<flow::FlowKey>> ring;
  // Double-buffered generations: `active` is worker-local; the coordinator
  // only touches replicas[g] after every worker has flipped away from g
  // (ordered through mutex_-guarded flip counters).
  std::vector<framework::FcmFramework> replicas;
  std::size_t active = 0;                    // worker thread only
  std::uint64_t packets_in_generation[2] = {0, 0};  // worker writes, see above
  std::uint64_t bytes_in_generation[2] = {0, 0};    // kBytes mode, same rules
  // (The flip counter lives in ShardedFcmFramework::shard_flips_, guarded by
  // its mutex_, so the analysis can name the guarding capability.)

  // Started last so every field above is constructed first; jthread joins on
  // destruction, keeping teardown exception-safe.
  std::jthread worker;
};

ShardedFcmFramework::ShardedFcmFramework(Options options)
    : options_(std::move(options)),
      cache_metrics_(options_.cache_entries > 0 ? options_.metrics : nullptr) {
  // The constructing thread owns the driver role until the instance is handed
  // to the (single) ingest thread; needed so cache_ setup below type-checks.
  driver_role_.assert_held();
  FCM_REQUIRE(options_.shard_count >= 1,
              "ShardedFcmFramework: shard_count must be >= 1");
  FCM_REQUIRE(options_.shard_count <= 256,
              "ShardedFcmFramework: shard_count implausibly large (> 256)");
  FCM_REQUIRE(options_.retained_epochs >= 1,
              "ShardedFcmFramework: must retain at least one epoch");
  byte_mode_ = options_.framework.count_mode ==
               framework::FcmFramework::CountMode::kBytes;
  FCM_REQUIRE(options_.cache_entries == 0 || byte_mode_,
              "ShardedFcmFramework: the heavy-flow cache counts bytes and "
              "needs CountMode::kBytes");
  data_kind_ = byte_mode_ ? kPairs : kUnitKeys;
  // Options::metrics is authoritative for the whole runtime: propagate it
  // into the replica/merged framework options so an analyze() run on a
  // merged epoch writes to the configured registry — and to NOTHING when
  // metrics == nullptr (the advertised fully-uninstrumented mode).
  options_.framework.metrics = options_.metrics;

  // Shard replicas record heavy-hitter candidates at ceil(T / N); the
  // coordinator re-qualifies the merged union at T.
  const framework::FcmFramework::Options replica_options =
      framework::FcmFramework::part_options(options_.framework,
                                            options_.shard_count);

  shards_.reserve(options_.shard_count);
  for (std::size_t s = 0; s < options_.shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>(s, replica_options));
  }
  if (options_.cache_entries > 0) {
    datapath::HeavyFlowCache::Options cache_options;
    cache_options.entries = options_.cache_entries;
    cache_options.ways = options_.cache_ways;
    cache_ = std::make_unique<datapath::HeavyFlowCache>(cache_options);
  }
  {
    // No thread can contend yet, but shard_flips_ is guarded state; the
    // uncontended lock keeps the analysis sound (and is free).
    common::MutexLock lock(mutex_);
    shard_flips_.assign(options_.shard_count, 0);
  }
  init_instruments();
  // Start threads only after every shard (and the instruments the
  // coordinator writes) exists.
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->worker = std::jthread([this, raw] { worker_loop(*raw); });
  }
  coordinator_ = std::jthread([this] { coordinator_loop(); });
}

void ShardedFcmFramework::init_instruments() {
  obs::MetricsRegistry* registry = options_.metrics;
  if (registry == nullptr) return;
  auto shard_labels = [](std::size_t s) {
    return std::vector<obs::MetricLabel>{{"shard", std::to_string(s)}};
  };

  auto instruments = std::make_unique<Instruments>();
  instruments->backpressure_spins = &registry->counter(
      "fcm_runtime_backpressure_spins_total", {},
      "Producer spin iterations while a shard ring was full");
  instruments->blocks_published = &registry->counter(
      "fcm_runtime_blocks_published_total", {},
      "Staged blocks published to shard rings (all kinds)");
  instruments->partial_flushes = &registry->counter(
      "fcm_runtime_partial_flushes_total", {},
      "Blocks published before they were full (rotation, stop)");
  instruments->rotations = &registry->counter(
      "fcm_runtime_rotations_total", {},
      "Epoch rotations requested (rotate_async calls)");
  instruments->epochs_merged = &registry->counter(
      "fcm_runtime_epochs_merged_total", {},
      "Epochs fully merged and published by the coordinator");
  instruments->overflow_promotions = &registry->counter(
      "fcm_sketch_overflow_promotions_total", {},
      "FCM tree nodes tripped into overflow (promotion to parent stage)");
  instruments->cardinality_saturations = &registry->counter(
      "fcm_sketch_cardinality_saturations_total", {},
      "Linear-counting cardinality estimates that hit the full-table guard");
  instruments->merge_seconds = &registry->histogram(
      "fcm_runtime_merge_seconds", obs::Histogram::latency_bounds(),
      {}, "Coordinator N-way merge + requalify wall time");
  instruments->rotation_wait_seconds = &registry->histogram(
      "fcm_runtime_rotation_wait_seconds", obs::Histogram::latency_bounds(),
      {},
      "Driver stall in rotate_async waiting for the previous epoch's merge");
  instruments->epoch_packets = &registry->gauge(
      "fcm_runtime_epoch_packets", {},
      "Packets absorbed by the most recently merged epoch");
  instruments->fanout_imbalance = &registry->gauge(
      "fcm_runtime_fanout_imbalance", {},
      "Max-shard over mean-shard packets in the last epoch (1.0 = balanced)");
  instruments->shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    Instruments::PerShard& series = instruments->shards.emplace_back();
    series.packets = &registry->counter(
        "fcm_runtime_shard_packets_total", shard_labels(shard->index),
        "Packets ingested per shard worker (published per merged epoch)");
    series.bytes = &registry->counter(
        "fcm_runtime_shard_bytes_total", shard_labels(shard->index),
        "Payload bytes ingested per shard worker (kBytes mode; published per "
        "merged epoch)");
    series.queue_depth = &registry->gauge(
        "fcm_runtime_queue_depth", shard_labels(shard->index),
        "Ring occupancy in staged items (read at the last merge)");
    series.queue_high_water_blocks = &registry->gauge(
        "fcm_runtime_queue_high_water_blocks", shard_labels(shard->index),
        "Peak ring occupancy in blocks (read at the last merge)");
  }
  instruments_ = std::move(instruments);
}

ShardedFcmFramework::~ShardedFcmFramework() { stop(); }

// --- block staging (driver thread) -----------------------------------------

void ShardedFcmFramework::open_block() {
  auto& ring = *shards_[rr_shard_]->ring;
  ring.assume_producer();  // the driver thread IS every ring's producer
  flow::FlowKey* slots = ring.try_open();
  if (slots == nullptr) [[unlikely]] {
    unsigned spins = 0;
    do {
      common::backoff(spins);  // ring full: backpressure
      slots = ring.try_open();
    } while (slots == nullptr);
    if (instruments_ != nullptr) {
      instruments_->backpressure_spins->inc(spins);
    }
  }
  open_.slots = slots;
  open_.fill = 0;
}

void ShardedFcmFramework::publish_block() {
  auto& ring = *shards_[rr_shard_]->ring;
  ring.assume_producer();
  ring.publish(open_.fill, data_kind_);
  if (instruments_ != nullptr) {
    Instruments& ins = *instruments_;
    ins.blocks_published->inc();
    if (open_.fill < kBlockItems) ins.partial_flushes->inc();
  }
  open_.slots = nullptr;
  open_.fill = 0;
  // Strict rotation: the next block goes to the next shard, whatever it
  // holds. FCM state depends only on per-leaf arrival totals, so the merged
  // counters do not depend on the split (DESIGN.md §7).
  rr_shard_ = rr_shard_ + 1 == shards_.size() ? 0 : rr_shard_ + 1;
}

void ShardedFcmFramework::stage_unit(flow::FlowKey key) {
  if (open_.slots == nullptr) [[unlikely]] open_block();
  open_.slots[open_.fill++] = key;
  if (open_.fill == kBlockItems) publish_block();
}

void ShardedFcmFramework::stage_pair(flow::FlowKey key, std::uint32_t weight) {
  if (open_.slots == nullptr) [[unlikely]] open_block();
  open_.slots[open_.fill] = key;
  open_.slots[open_.fill + 1] = std::bit_cast<flow::FlowKey>(weight);
  open_.fill += 2;
  if (open_.fill == kBlockItems) publish_block();
}

void ShardedFcmFramework::stage_demotion(flow::FlowKey key,
                                         std::uint64_t weight) {
  // FCM counters are order-independent sums, so a weight too heavy for one
  // pair lands exactly as several pairs.
  for (; weight > kMaxPairWeight; weight -= kMaxPairWeight) {
    stage_pair(key, kMaxPairWeight);
  }
  stage_pair(key, common::checked_narrow<std::uint32_t>(weight));
}

void ShardedFcmFramework::ingest_keys(std::span<const flow::FlowKey> keys) {
  // No routing hash: memcpy runs straight into the in-ring block, whichever
  // shard it belongs to.
  std::span<const flow::FlowKey> rest = keys;
  while (!rest.empty()) {
    if (open_.slots == nullptr) open_block();
    const std::size_t n = std::min<std::size_t>(kBlockItems - open_.fill,
                                                 rest.size());
    std::memcpy(open_.slots + open_.fill, rest.data(),
                n * sizeof(flow::FlowKey));
    open_.fill += common::checked_narrow<std::uint32_t>(n);
    rest = rest.subspan(n);
    if (open_.fill == kBlockItems) publish_block();
  }
}

void ShardedFcmFramework::ingest_packets(
    std::span<const flow::Packet> packets) {
  if (byte_mode_) {
    for (const flow::Packet& packet : packets) {
      // count == 0 is reserved (a marker-like empty pair makes no sense).
      FCM_REQUIRE(packet.bytes > 0,
                  "ShardedFcmFramework: zero-byte packet in byte-count mode");
      if (cache_ != nullptr) {
        offer_cached(packet.key, packet.bytes);
      } else {
        stage_pair(packet.key, packet.bytes);
      }
    }
  } else {
    for (const flow::Packet& packet : packets) stage_unit(packet.key);
  }
}

void ShardedFcmFramework::flush_staging() {
  // A block is reserved only when an item is about to be staged into it, so
  // an open block is never empty.
  if (open_.slots != nullptr) publish_block();
}

// --- data plane (driver thread) --------------------------------------------

void ShardedFcmFramework::offer_cached(flow::FlowKey key, std::uint64_t count) {
  // Hits and installs stay at the driver; nothing crosses a ring for them.
  const datapath::HeavyFlowCache::Result result = cache_->offer(key, count);
  if (result.demote_count > 0) {
    stage_demotion(result.demote_key, result.demote_count);
  }
}

void ShardedFcmFramework::drain_cache() {
  if (cache_ == nullptr) return;
  cache_metrics_.publish(*cache_);
  // One sweep demotes every resident flow into the open block and empties
  // the table; the cache counters stay cumulative for the next publish.
  cache_->drain([this](flow::FlowKey key, std::uint64_t count) {
    driver_role_.assert_held();  // runs inline on the driver thread
    stage_demotion(key, count);
  });
}

void ShardedFcmFramework::ingest(flow::FlowKey key) {
  driver_role_.assert_held();
  FCM_ASSERT(!stopped_, "ShardedFcmFramework: ingest after stop()");
  FCM_REQUIRE(!byte_mode_,
              "ShardedFcmFramework: byte-count mode ingests packets, not keys");
  stage_unit(key);
}

void ShardedFcmFramework::ingest(const flow::Packet& packet) {
  driver_role_.assert_held();
  FCM_ASSERT(!stopped_, "ShardedFcmFramework: ingest after stop()");
  ingest_packets(std::span<const flow::Packet>(&packet, 1));
}

void ShardedFcmFramework::ingest(std::span<const flow::Packet> packets) {
  driver_role_.assert_held();
  FCM_ASSERT(!stopped_, "ShardedFcmFramework: ingest after stop()");
  ingest_packets(packets);
}

void ShardedFcmFramework::ingest(std::span<const flow::FlowKey> keys) {
  driver_role_.assert_held();
  FCM_ASSERT(!stopped_, "ShardedFcmFramework: ingest after stop()");
  FCM_REQUIRE(!byte_mode_,
              "ShardedFcmFramework: byte-count mode ingests packets, not keys");
  ingest_keys(keys);
}

// --- epoch rotation ---------------------------------------------------------

std::size_t ShardedFcmFramework::rotate_async() {
  driver_role_.assert_held();
  FCM_REQUIRE(!stopped_, "ShardedFcmFramework: rotate after stop()");
  // At most one rotation in flight: the generation we are about to expose to
  // the workers must be fully merged and cleared first. The stall (zero in
  // steady state, positive when merging cannot keep up with rotation
  // frequency) is exported as fcm_runtime_rotation_wait_seconds.
  {
    const obs::ScopedTimer wait_timer(
        instruments_ ? instruments_->rotation_wait_seconds : nullptr);
    common::MutexLock lock(mutex_);
    while (epochs_merged_ != rotations_requested_) cv_.wait(lock);
  }
  if (instruments_ != nullptr) instruments_->rotations->inc();
  // Cache contents belong to the epoch being closed: demote every resident
  // flow into the rings BEFORE the markers, so the merged epoch conserves
  // totals exactly (each flow's units reach the sketch ahead of the flip).
  drain_cache();
  // Publish the partial block so it lands ahead of the markers below.
  flush_staging();
  for (auto& shard : shards_) {
    auto& ring = *shard->ring;
    ring.assume_producer();
    flow::FlowKey* slots = ring.try_open();
    unsigned spins = 0;
    while (slots == nullptr) {
      common::backoff(spins);
      slots = ring.try_open();
    }
    ring.publish(0, kMarker);
  }
  std::size_t epoch;
  {
    common::MutexLock lock(mutex_);
    epoch = rotations_requested_++;
  }
  cv_.notify_all();
  return epoch;
}

ShardedFcmFramework::EpochReport ShardedFcmFramework::rotate() {
  return wait_epoch(rotate_async());
}

ShardedFcmFramework::EpochReport ShardedFcmFramework::wait_epoch(
    std::size_t index) {
  common::MutexLock lock(mutex_);
  while (epochs_merged_ <= index) {
    // A stopped coordinator merges nothing more: this epoch never closes.
    FCM_REQUIRE(!coordinator_stop_,
                "ShardedFcmFramework: epoch " + std::to_string(index) +
                    " never closed before stop()");
    cv_.wait(lock);
  }
  const std::size_t oldest = history_.front().report.index;
  FCM_REQUIRE(index >= oldest, "ShardedFcmFramework: epoch " +
                                   std::to_string(index) +
                                   " no longer retained");
  return history_[index - oldest].report;
}

// --- worker -----------------------------------------------------------------

void ShardedFcmFramework::worker_loop(Shard& shard) {
  // Applies one published block to the active generation. Unit-key blocks
  // feed the batched kernel IN PLACE from ring memory — the span is only
  // valid until release(), which the loop below performs right after. The
  // generation tallies are plain integers: the coordinator reads them once
  // the worker has flipped away, and publishes them to the registry.
  const auto apply_block =
      [&](const common::BlockQueue<flow::FlowKey>::View& view) {
        framework::FcmFramework& replica = shard.replicas[shard.active];
        if (view.kind == kUnitKeys) {
          replica.process_batch(
              std::span<const flow::FlowKey>(view.data, view.count));
          shard.packets_in_generation[shard.active] += view.count;
          return;
        }
        FCM_ASSERT(view.kind == kPairs, "ShardedFcmFramework: bad block kind");
        // One loop splits the pairs into key and weight runs on the stack and
        // sums their bytes. A pair is one item (see EpochReport::packets).
        const std::uint32_t pairs = view.count / 2;
        flow::FlowKey keys[kBlockItems / 2];
        std::uint64_t weights[kBlockItems / 2];
        std::uint64_t& bytes = shard.bytes_in_generation[shard.active];
        for (std::uint32_t i = 0; i < pairs; ++i) {
          keys[i] = view.data[2 * i];
          weights[i] = std::bit_cast<std::uint32_t>(view.data[2 * i + 1]);
          bytes += weights[i];
        }
        replica.process_batch(std::span<const flow::FlowKey>(keys, pairs),
                              std::span<const std::uint64_t>(weights, pairs));
        shard.packets_in_generation[shard.active] += pairs;
      };
  auto& ring = *shard.ring;
  ring.assume_consumer();  // this worker IS the ring's single consumer
  unsigned spins = 0;
  for (;;) {
    // Read stop_ BEFORE the drain: stop() publishes its last blocks before
    // setting it, so a drain that starts after seeing it set finds them all.
    // Reading it after a failed drain would drop a block published between
    // the two.
    const bool stopping = stop_.load(std::memory_order_acquire);
    bool any = false;
    common::BlockQueue<flow::FlowKey>::View view;
    while (ring.try_front(view)) {
      any = true;
      if (view.kind == kMarker) {
        // Epoch boundary: flip and publish the flip. The mutex makes every
        // replica write above happen-before the coordinator's reads once it
        // observes the new flip count.
        {
          common::MutexLock lock(mutex_);
          shard.active ^= 1;
          ++shard_flips_[shard.index];
        }
        cv_.notify_all();
      } else {
        apply_block(view);
      }
      ring.release();
    }
    if (!any) {
      if (stopping) return;
      common::backoff(spins);
    } else {
      spins = 0;
    }
  }
}

// --- coordinator ------------------------------------------------------------

void ShardedFcmFramework::coordinator_loop() {
  for (;;) {
    std::size_t epoch;
    {
      // Explicit while-loops (not wait-with-predicate): the guarded reads
      // stay in THIS function's scope, where the analysis can see the lock.
      common::MutexLock lock(mutex_);
      while (!coordinator_stop_ && rotations_requested_ == epochs_merged_) {
        cv_.wait(lock);
      }
      if (coordinator_stop_ && rotations_requested_ == epochs_merged_) return;
      epoch = epochs_merged_;
      // Wait until every worker has flipped past this epoch's marker; the
      // drained generation is then exclusively ours (the workers write the
      // other one until the NEXT marker, which rotate_async() refuses to
      // push before we finish).
      while (!std::all_of(shard_flips_.begin(), shard_flips_.end(),
                          [epoch](std::size_t flips) { return flips > epoch; })) {
        cv_.wait(lock);
      }
    }
    // Drained generation index: workers start on 0 and flip once per epoch.
    const std::size_t gen = epoch % 2;

    // Merge off the ingest path. Shard replicas share identical options
    // (including the per-shard threshold), so FcmFramework::merge applies;
    // re-qualify the heavy-hitter union at the global threshold afterwards.
    const auto merge_start = std::chrono::steady_clock::now();
    // Copied, never moved: the shard replica is reset and reused below.
    Epoch entry{shards_[0]->replicas[gen], {}};
    framework::FcmFramework& merged = entry.merged;
    for (std::size_t s = 1; s < shards_.size(); ++s) {
      merged.merge(shards_[s]->replicas[gen]);
    }
    const std::uint64_t global_t = options_.framework.heavy_hitter_threshold;
    if (global_t > 0) merged.requalify_heavy_hitters(global_t);
    const double merge_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      merge_start)
            .count();
    FCM_CHECKED_ONLY(merged.check_invariants());

    EpochReport& report = entry.report;
    report.index = epoch;
    report.merge_seconds = merge_seconds;
    std::uint64_t max_shard_packets = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      const std::uint64_t packets = shard.packets_in_generation[gen];
      const std::uint64_t bytes = shard.bytes_in_generation[gen];
      report.packets += packets;
      report.bytes += bytes;
      max_shard_packets = std::max(max_shard_packets, packets);
      if (instruments_ != nullptr) {
        // The shard's tallies go to the registry once per epoch, here, so
        // the worker loop never touches it.
        const Instruments::PerShard& series = instruments_->shards[s];
        series.packets->inc(packets);
        series.bytes->inc(bytes);
        series.queue_depth->set(static_cast<double>(
            shard.ring->size_approx_blocks() * kBlockItems));
        series.queue_high_water_blocks->set(
            static_cast<double>(shard.ring->high_water_blocks()));
      }
      shard.packets_in_generation[gen] = 0;
      shard.bytes_in_generation[gen] = 0;
      shard.replicas[gen].reset();  // ready for the epoch after next
    }
    if (report.packets > 0) {
      const double mean = static_cast<double>(report.packets) /
                          static_cast<double>(shards_.size());
      report.fanout_imbalance = static_cast<double>(max_shard_packets) / mean;
    }
    // The merged replica's counters are per-epoch (shard replicas reset
    // above), so they are exactly this epoch's deltas.
    report.overflow_promotions = merged.overflow_promotion_count();
    report.cardinality = merged.cardinality();
    report.heavy_hitters = merged.heavy_hitters();
    if (instruments_ != nullptr) {
      instruments_->merge_seconds->observe(merge_seconds);
      instruments_->overflow_promotions->inc(report.overflow_promotions);
      instruments_->cardinality_saturations->inc(
          merged.cardinality_saturation_count());
      instruments_->epoch_packets->set(static_cast<double>(report.packets));
      instruments_->fanout_imbalance->set(report.fanout_imbalance);
      instruments_->epochs_merged->inc();
    }

    // Every series above is written before the epoch becomes visible: a
    // wait_epoch() that returns it reads the registry with this epoch in.
    {
      common::MutexLock lock(mutex_);
      history_.push_back(std::move(entry));
      while (history_.size() > options_.retained_epochs) history_.pop_front();
      ++epochs_merged_;
    }
    cv_.notify_all();
  }
}

// --- shutdown ---------------------------------------------------------------

void ShardedFcmFramework::stop() {
  driver_role_.assert_held();
  if (stopped_) return;
  drain_cache();  // un-rotated tail: hand it to the workers like a flush
  flush_staging();
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  {
    common::MutexLock lock(mutex_);
    // Workers have drained their rings (markers included), so all requested
    // epochs will be merged; wait for the coordinator to catch up.
    while (epochs_merged_ != rotations_requested_) cv_.wait(lock);
    // Un-rotated tail traffic: with the workers joined, the driver makes the
    // flip a marker would have made, and the coordinator merges the closed
    // generation as one final epoch.
    const bool tail = std::any_of(
        shards_.begin(), shards_.end(), [](const std::unique_ptr<Shard>& shard) {
          return shard->packets_in_generation[shard->active] > 0;
        });
    if (tail) {
      for (auto& shard : shards_) {
        shard->active ^= 1;
        ++shard_flips_[shard->index];
      }
      ++rotations_requested_;
      cv_.notify_all();
      while (epochs_merged_ != rotations_requested_) cv_.wait(lock);
    }
    coordinator_stop_ = true;
  }
  cv_.notify_all();
  if (coordinator_.joinable()) coordinator_.join();
  stopped_ = true;
}

// --- results ----------------------------------------------------------------

framework::FcmFramework ShardedFcmFramework::merged_epoch(
    std::size_t back) const {
  common::MutexLock lock(mutex_);
  FCM_REQUIRE(back < history_.size(),
              "ShardedFcmFramework: no merged epoch " + std::to_string(back) +
                  " epochs back (retained: " + std::to_string(history_.size()) +
                  ")");
  return history_[history_.size() - 1 - back].merged;
}

std::size_t ShardedFcmFramework::epochs_completed() const {
  common::MutexLock lock(mutex_);
  return epochs_merged_;
}

std::vector<double> ShardedFcmFramework::queue_high_water() const {
  std::vector<double> high_water;
  high_water.reserve(shards_.size());
  for (const auto& shard : shards_) {
    high_water.push_back(static_cast<double>(shard->ring->high_water_blocks()) /
                         static_cast<double>(shard->ring->block_count()));
  }
  return high_water;
}

void ShardedFcmFramework::check_invariants() const {
  // Documented as driver-thread-only (it reads stopped_ and, once stopped,
  // the shard replicas themselves).
  driver_role_.assert_held();
  common::MutexLock lock(mutex_);
  FCM_ASSERT(epochs_merged_ <= rotations_requested_,
             "ShardedFcmFramework: merged more epochs than were requested");
  FCM_ASSERT(history_.size() <= options_.retained_epochs,
             "ShardedFcmFramework: retained more epochs than configured");
  for (const auto& epoch : history_) epoch.merged.check_invariants();
  if (cache_ != nullptr) cache_->check_invariants();
  if (stopped_) {
    for (const auto& shard : shards_) {
      for (const auto& replica : shard->replicas) replica.check_invariants();
    }
  }
}

}  // namespace fcm::runtime
