#include "runtime/sharded_framework.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/block_queue.h"
#include "common/contracts.h"

namespace fcm::runtime {

namespace {

// Block payload tags (BlockQueue header `kind`, DESIGN.md §13). The queue is
// kind-agnostic; the runtime's producer/worker pair agrees on these.
enum BlockKind : std::uint32_t {
  // `count` FlowKeys, each one packet — fed to process_batch in place.
  kUnitKeys = 0,
  // count/2 (key, u32 bytes) pairs interleaved in the payload, each applied
  // with process_weighted: byte-mode packets and every heavy-flow-cache
  // demotion. Weights are data-dependent, so the +1-only batch kernel does
  // not apply.
  kPairs = 1,
  // In-band epoch marker (count == 0).
  kMarker = 2,
};

// Heaviest weight one pair carries; heavier cache demotions split.
constexpr std::uint32_t kMaxPairWeight =
    std::numeric_limits<std::uint32_t>::max();

// Progressive backoff for spin loops (driver backpressure, idle workers,
// blocked marker pushes). Yield first; park briefly once clearly idle so a
// single-core host still makes progress.
void backoff(unsigned& spins) {
  ++spins;
  if (spins < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

}  // namespace

// Registry series the runtime writes (DESIGN.md §8). Handles are resolved
// once at construction; every hot-path touch is a relaxed atomic on a
// cache-line-private cell, batched per BLOCK, never per packet. Queue-depth
// gauges are pull-style callbacks (sampled at scrape from
// BlockQueue::size_approx_blocks, itself acquire-ordered), so idle periods
// cost nothing.
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
  std::vector<obs::Counter*> shard_packets;     // one series per shard
  std::vector<obs::Counter*> shard_bytes;       // one series per shard (kBytes)
  std::vector<obs::MetricsRegistry::CallbackHandle> queue_depth_gauges;
};

struct ShardedFcmFramework::Shard {
  Shard(std::size_t shard_index,
        const framework::FcmFramework::Options& replica_options,
        std::size_t block_count, std::size_t block_size)
      : index(shard_index) {
    replicas.reserve(2);
    replicas.emplace_back(replica_options);
    replicas.emplace_back(replica_options);
    // Allocated after the replicas: the other order shifts the heap layout
    // and measured 4 MiB more peak RSS on perfbench capture_bytes.
    ring = std::make_unique<common::BlockQueue<flow::FlowKey>>(block_count,
                                                               block_size);
  }

  const std::size_t index;  // shard number (stripe + label value)
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
      cache_metrics_(options_.cache_entries > 0 ? options_.metrics : nullptr,
                     options_.metrics_instance) {
  // The constructing thread owns the driver role until the instance is handed
  // to the (single) ingest thread; needed so cache_ setup below type-checks.
  driver_role_.assert_held();
  FCM_REQUIRE(options_.shard_count >= 1,
              "ShardedFcmFramework: shard_count must be >= 1");
  FCM_REQUIRE(options_.shard_count <= 256,
              "ShardedFcmFramework: shard_count implausibly large (> 256)");
  FCM_REQUIRE(options_.queue_capacity >= 2 &&
                  (options_.queue_capacity & (options_.queue_capacity - 1)) == 0,
              "ShardedFcmFramework: queue_capacity must be a power of two >= 2");
  FCM_REQUIRE(options_.flush_batch >= 1 &&
                  options_.flush_batch <= options_.queue_capacity,
              "ShardedFcmFramework: flush_batch must be in [1, queue_capacity]");
  FCM_REQUIRE(options_.retained_epochs >= 1,
              "ShardedFcmFramework: must retain at least one epoch");
  byte_mode_ = options_.framework.count_mode ==
               framework::FcmFramework::CountMode::kBytes;
  FCM_REQUIRE(options_.cache_entries == 0 || byte_mode_,
              "ShardedFcmFramework: the heavy-flow cache counts bytes and "
              "needs CountMode::kBytes");
  data_kind_ = byte_mode_ ? kPairs : kUnitKeys;
  FCM_REQUIRE(!byte_mode_ || options_.flush_batch >= 2,
              "ShardedFcmFramework: byte-count mode stages (key, bytes) pairs "
              "and needs flush_batch >= 2");
  // A pair never splits across blocks, so a pair block is full one slot
  // short of an odd flush_batch.
  full_fill_ = common::checked_narrow<std::uint32_t>(
      data_kind_ == kPairs ? options_.flush_batch & ~std::size_t{1}
                           : options_.flush_batch);
  if (options_.heavy_change_threshold == 0) {
    options_.heavy_change_threshold = options_.framework.heavy_hitter_threshold;
  }
  // Options::metrics is authoritative for the whole runtime: propagate it
  // into the replica/merged framework options so analyze_on_rotate's EM run
  // writes to the configured registry — and to NOTHING when metrics ==
  // nullptr (the advertised fully-uninstrumented mode).
  options_.framework.metrics = options_.metrics;

  // Shard replicas record heavy-hitter candidates at ceil(T / N): a flow
  // with true global count >= T has >= ceil(T/N) packets in some shard, and
  // FCM never underestimates, so the candidate union cannot miss it. The
  // coordinator re-qualifies at T after the merge.
  framework::FcmFramework::Options replica_options = options_.framework;
  const std::uint64_t global_t = options_.framework.heavy_hitter_threshold;
  if (global_t > 0) {
    per_shard_hh_threshold_ =
        (global_t + options_.shard_count - 1) / options_.shard_count;
    replica_options.heavy_hitter_threshold = per_shard_hh_threshold_;
  }

  // queue_capacity is specified in items for continuity with the item-ring
  // era; the block ring holds capacity/flush_batch whole blocks (>= 1 by the
  // flush_batch <= queue_capacity contract above).
  const std::size_t block_count = options_.queue_capacity / options_.flush_batch;

  shards_.reserve(options_.shard_count);
  for (std::size_t s = 0; s < options_.shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>(s, replica_options, block_count,
                                              options_.flush_batch));
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
  // Start threads only after every shard (and the instruments the worker
  // loops read) exists.
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->worker = std::jthread([this, raw] { worker_loop(*raw); });
  }
  coordinator_ = std::jthread([this] { coordinator_loop(); });
}

void ShardedFcmFramework::init_instruments() {
  obs::MetricsRegistry* registry = options_.metrics;
  if (registry == nullptr) return;
  auto base_labels = [&]() -> std::vector<obs::MetricLabel> {
    if (options_.metrics_instance.empty()) return {};
    return {{"instance", options_.metrics_instance}};
  };
  auto shard_labels = [&](std::size_t s) {
    std::vector<obs::MetricLabel> labels = base_labels();
    labels.push_back({"shard", std::to_string(s)});
    return labels;
  };

  auto instruments = std::make_unique<Instruments>();
  instruments->backpressure_spins = &registry->counter(
      "fcm_runtime_backpressure_spins_total", base_labels(),
      "Producer spin iterations while a shard ring was full");
  instruments->blocks_published = &registry->counter(
      "fcm_runtime_blocks_published_total", base_labels(),
      "Staged blocks published to shard rings (all kinds)");
  instruments->partial_flushes = &registry->counter(
      "fcm_runtime_partial_flushes_total", base_labels(),
      "Blocks published before they were full (rotation, stop)");
  instruments->rotations = &registry->counter(
      "fcm_runtime_rotations_total", base_labels(),
      "Epoch rotations requested (rotate_async calls)");
  instruments->epochs_merged = &registry->counter(
      "fcm_runtime_epochs_merged_total", base_labels(),
      "Epochs fully merged and published by the coordinator");
  instruments->overflow_promotions = &registry->counter(
      "fcm_sketch_overflow_promotions_total", base_labels(),
      "FCM tree nodes tripped into overflow (promotion to parent stage)");
  instruments->cardinality_saturations = &registry->counter(
      "fcm_sketch_cardinality_saturations_total", base_labels(),
      "Linear-counting cardinality estimates that hit the full-table guard");
  instruments->merge_seconds = &registry->histogram(
      "fcm_runtime_merge_seconds", obs::Histogram::latency_bounds(),
      base_labels(), "Coordinator N-way merge + requalify wall time");
  instruments->rotation_wait_seconds = &registry->histogram(
      "fcm_runtime_rotation_wait_seconds", obs::Histogram::latency_bounds(),
      base_labels(),
      "Driver stall in rotate_async waiting for the previous epoch's merge");
  instruments->epoch_packets = &registry->gauge(
      "fcm_runtime_epoch_packets", base_labels(),
      "Packets absorbed by the most recently merged epoch");
  instruments->fanout_imbalance = &registry->gauge(
      "fcm_runtime_fanout_imbalance", base_labels(),
      "Max-shard over mean-shard packets in the last epoch (1.0 = balanced)");
  instruments->shard_packets.reserve(shards_.size());
  instruments->shard_bytes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    instruments->shard_packets.push_back(&registry->counter(
        "fcm_runtime_shard_packets_total", shard_labels(shard->index),
        "Packets ingested per shard worker"));
    instruments->shard_bytes.push_back(&registry->counter(
        "fcm_runtime_shard_bytes_total", shard_labels(shard->index),
        "Payload bytes ingested per shard worker (kBytes mode; tallied in "
        "the block-apply sweep, batched per block)"));
  }
  // Pull-style occupancy gauges. Two live instances sharing one registry
  // without distinct metrics_instance labels would collide here; the later
  // instance simply runs without queue-depth gauges.
  try {
    for (const auto& shard : shards_) {
      Shard* raw = shard.get();
      instruments->queue_depth_gauges.push_back(registry->gauge_callback(
          "fcm_runtime_queue_depth", shard_labels(raw->index),
          [raw, this] {
            return static_cast<double>(raw->ring->size_approx_blocks() *
                                       options_.flush_batch);
          },
          "Ring occupancy in staged items (sampled at scrape)"));
      instruments->queue_depth_gauges.push_back(registry->gauge_callback(
          "fcm_runtime_queue_high_water_blocks", shard_labels(raw->index),
          [raw] { return static_cast<double>(raw->ring->high_water_blocks()); },
          "Peak ring occupancy in blocks"));
    }
  } catch (const std::logic_error&) {
    instruments->queue_depth_gauges.clear();
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
      backoff(spins);  // ring full: backpressure
      slots = ring.try_open();
    } while (slots == nullptr);
    if (instruments_ != nullptr) {
      instruments_->backpressure_spins->inc_at(rr_shard_, spins);
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
    ins.blocks_published->inc_at(rr_shard_);
    if (open_.fill < full_fill_) ins.partial_flushes->inc_at(rr_shard_);
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
  if (open_.fill == full_fill_) publish_block();
}

void ShardedFcmFramework::stage_pair(flow::FlowKey key, std::uint32_t weight) {
  if (open_.slots == nullptr) [[unlikely]] open_block();
  open_.slots[open_.fill] = key;
  open_.slots[open_.fill + 1] = std::bit_cast<flow::FlowKey>(weight);
  open_.fill += 2;
  if (open_.fill == full_fill_) publish_block();
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
    const std::size_t n = std::min<std::size_t>(full_fill_ - open_.fill,
                                                 rest.size());
    std::memcpy(open_.slots + open_.fill, rest.data(),
                n * sizeof(flow::FlowKey));
    open_.fill += common::checked_narrow<std::uint32_t>(n);
    rest = rest.subspan(n);
    if (open_.fill == full_fill_) publish_block();
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
      backoff(spins);
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
  while (epochs_merged_ <= index) cv_.wait(lock);
  FCM_REQUIRE(index >= history_base_,
              "ShardedFcmFramework: epoch " + std::to_string(index) +
                  " no longer retained");
  return reports_[index - history_base_];
}

// --- worker -----------------------------------------------------------------

void ShardedFcmFramework::worker_loop(Shard& shard) {
  // Applies one published block to the active generation. Unit-key blocks
  // feed the batched kernel IN PLACE from ring memory — the span is only
  // valid until release(), which the loop below performs right after.
  std::uint64_t data_items = 0;
  std::uint64_t data_bytes = 0;
  const auto apply_block =
      [&](const common::BlockQueue<flow::FlowKey>::View& view) {
        switch (view.kind) {
          case kUnitKeys:
            shard.replicas[shard.active].process_batch(
                std::span<const flow::FlowKey>(view.data, view.count));
            shard.packets_in_generation[shard.active] += view.count;
            data_items += view.count;
            break;
          case kPairs: {
            // Byte accounting folds into the same decode loop that feeds
            // the replica — no second pass over the block.
            std::uint64_t block_bytes = 0;
            framework::FcmFramework& replica = shard.replicas[shard.active];
            for (std::uint32_t i = 0; i + 1 < view.count; i += 2) {
              const auto bytes = std::bit_cast<std::uint32_t>(view.data[i + 1]);
              replica.process_weighted(view.data[i], bytes);
              block_bytes += bytes;
            }
            // A pair is one item (see EpochReport::packets).
            shard.packets_in_generation[shard.active] += view.count / 2;
            data_items += view.count / 2;
            shard.bytes_in_generation[shard.active] += block_bytes;
            data_bytes += block_bytes;
            break;
          }
          default:
            FCM_ASSERT(false, "ShardedFcmFramework: unknown block kind");
        }
      };
  const auto publish_data_items = [&] {
    if (data_items > 0 && instruments_ != nullptr) {
      // Per-block, not per-packet: one relaxed fetch_add on this worker's
      // own cache-line-aligned cell covers a whole block run.
      instruments_->shard_packets[shard.index]->inc_at(shard.index, data_items);
      if (data_bytes > 0) {
        instruments_->shard_bytes[shard.index]->inc_at(shard.index, data_bytes);
      }
    }
    data_items = 0;
    data_bytes = 0;
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
        publish_data_items();
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
    publish_data_items();
    if (!any) {
      if (stopping) return;
      backoff(spins);
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
    framework::FcmFramework merged = shards_[0]->replicas[gen];
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

    EpochReport report;
    report.index = epoch;
    report.merge_seconds = merge_seconds;
    std::uint64_t max_shard_packets = 0;
    for (auto& shard : shards_) {
      report.packets += shard->packets_in_generation[gen];
      report.bytes += shard->bytes_in_generation[gen];
      max_shard_packets =
          std::max(max_shard_packets, shard->packets_in_generation[gen]);
      shard->packets_in_generation[gen] = 0;
      shard->bytes_in_generation[gen] = 0;
      shard->replicas[gen].reset();  // ready for the epoch after next
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
    }
    if (options_.heavy_change_threshold > 0) {
      // Take the pointer under the lock, compute outside it: history_ only
      // mutates on this thread, so the back() element stays valid (and
      // unread by anyone else) after the lock drops.
      const framework::FcmFramework* previous = nullptr;
      {
        common::MutexLock lock(mutex_);
        if (!history_.empty()) previous = &history_.back();
      }
      if (previous != nullptr) {
        report.heavy_changes = framework::FcmFramework::heavy_changes(
            *previous, merged, options_.heavy_change_threshold);
      }
    }
    if (options_.analyze_on_rotate) report.analysis = merged.analyze();

    {
      common::MutexLock lock(mutex_);
      history_.push_back(std::move(merged));
      reports_.push_back(std::move(report));
      while (history_.size() > options_.retained_epochs) {
        history_.pop_front();
        reports_.pop_front();
        ++history_base_;
      }
      ++epochs_merged_;
    }
    if (instruments_ != nullptr) instruments_->epochs_merged->inc();
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
  return history_[history_.size() - 1 - back];
}

std::uint64_t ShardedFcmFramework::flow_size(flow::FlowKey key) const {
  common::MutexLock lock(mutex_);
  FCM_REQUIRE(!history_.empty(),
              "ShardedFcmFramework: flow_size before the first rotation");
  return history_.back().flow_size(key);
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
  FCM_ASSERT(history_.size() == reports_.size(),
             "ShardedFcmFramework: history/report deques diverged");
  FCM_ASSERT(history_.size() <= options_.retained_epochs,
             "ShardedFcmFramework: retained more epochs than configured");
  for (const auto& merged : history_) merged.check_invariants();
  if (cache_ != nullptr) cache_->check_invariants();
  if (stopped_) {
    for (const auto& shard : shards_) {
      for (const auto& replica : shard->replicas) replica.check_invariants();
    }
  }
}

}  // namespace fcm::runtime
