// Sharded ingestion runtime (DESIGN.md §7, block-staged hand-off §13).
//
// The paper's data plane sustains line rate because every FCM update is an
// independent O(1) register op; this runtime recovers that parallelism in
// software. One driver thread stages traffic into blocks and hands WHOLE
// blocks to N shard workers, in strict rotation, over lock-free block rings
// (common/block_queue.h); each worker owns a private FcmFramework replica
// and feeds popped blocks straight into the batched ingest kernel
// (FcmFramework::process_batch), so the hot path is entirely
// unsynchronized and pays one release store per block of
// common::kBatchBlock packets instead of per packet. FCM counters are
// linear, so at each epoch boundary the N shard replicas are merged into
// ONE logical sketch — bit-exact equal to the sketch a serial run would
// hold (FcmTree::merge) whatever split of the traffic the shards saw —
// which the existing control plane (EM/FSD, entropy, heavy change)
// consumes unchanged.
//
// Block staging (DESIGN.md §13): the driver keeps ONE open block, reserved
// in place inside the ring of the shard whose turn it is (zero staging
// copy). Span ingest memcpys runs of keys into it; a block that reaches
// common::kBatchBlock keys (32 (key, bytes) pairs in byte mode) is published
// with one release store, and the next block goes to the next shard
// ((s + 1) % N). Each shard ring holds 256 blocks; the geometry is fixed
// (DESIGN.md §13.3). No key is hashed to pick a shard, so shard loads
// differ by at most one block. The open block is published at rotation and
// stop(), ahead of the epoch markers, so every packet lands in the epoch it
// was ingested into.
//
// Epoch double-buffering: each worker holds TWO replica generations, active
// and draining. rotate_async() pushes an in-band epoch marker block into
// every shard ring; a worker that pops the marker flips to the other
// generation and keeps consuming — ingest never stalls on a rotation. A
// background epoch coordinator waits until every worker has flipped, merges
// the drained generation (off the ingest path), derives the epoch report
// (cardinality, re-qualified heavy hitters, ingest telemetry), clears the
// drained replicas for reuse, and publishes the merged framework with its
// report into a bounded history.
//
// The runtime stops at the merged epoch. Cross-epoch analytics (heavy
// change, EM) belong to the collector: diff two merged epochs with
// FcmFramework::heavy_changes(merged_epoch(1), merged_epoch(0), T), run
// merged_epoch().analyze(), or deliver WireCodec::serialize(merged_epoch())
// to an agg::AggregationService, the one epoch engine (DESIGN.md §11).
//
// Heavy hitters under sharding: a flow's packets spread over any shards, so
// shard replicas run FcmFramework::part_options (candidates at ceil(T / N))
// and the coordinator re-qualifies the merged union at T.
//
// Thread discipline (machine-checked, DESIGN.md §10): ingest(),
// rotate_async(), rotate() and stop() must all be called from ONE driver
// thread — expressed as the driver_role_ capability: the public driver entry
// points assert it, the private helpers (block staging included) REQUIRE it,
// and driver-only state (the open block and its rotation cursor included)
// is GUARDED_BY it.
// wait_epoch()/merged_epoch()/epochs_completed() are safe from any thread
// (they only read mutex_-guarded published state).
// The destructor stops and joins all threads; workers are std::jthread, so
// teardown is exception-safe (tools/fcm_lint.py bans plain std::thread in
// src/ for exactly this reason).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "datapath/heavy_flow_cache.h"
#include "framework/fcm_framework.h"
#include "obs/metrics_registry.h"

namespace fcm::runtime {

class ShardedFcmFramework {
 public:
  // Vestigial: the driver routes whole blocks to shards in rotation and
  // reads neither this type nor Options::fanout.
  enum class Fanout {
    // Kept only because perfbench/ spells it; it goes with the next
    // benchmark change (ROADMAP item 8).
    kHashByKey,
  };

  struct Options {
    // Per-logical-sketch configuration; each shard replica runs
    // FcmFramework::part_options(framework, shard_count).
    framework::FcmFramework::Options framework;
    // Shard workers, each with its own ring. Ingest applies backpressure
    // (spins) when the next shard's ring is full.
    std::size_t shard_count = 4;
    Fanout fanout = Fanout::kHashByKey;  // unread, see Fanout
    // Merged epoch snapshots retained for cross-epoch queries (>= 1).
    std::size_t retained_epochs = 4;
    // Exact-match heavy-flow cache in FRONT of the fan-out (DESIGN.md §12):
    // 0 disables it. It counts bytes, so it needs CountMode::kBytes
    // (ContractViolation otherwise): per-packet unit counts are already
    // cheaper in the batched sketch kernel than one cache lookup. Hot flows
    // are absorbed at the DRIVER — a cache hit never crosses a ring at all —
    // and are demoted as one (key, bytes) pair on eviction and at every
    // rotation (several pairs past 2^32 - 1 bytes), staged like any other
    // pair, so each merged epoch holds exactly the bytes ingested into it
    // (the merged COUNTER state is bit-exact equal to a cache-off run; the
    // on-path HH ledger is trajectory-dependent but never misses a truly
    // heavy flow — the differential battery checks both).
    std::size_t cache_entries = 0;
    std::size_t cache_ways = 4;       // set associativity (see HeavyFlowCache)
    // Telemetry sink (DESIGN.md §8). Defaults to the process-global
    // registry; set to nullptr to run fully uninstrumented (the throughput
    // bench's overhead study uses that as its baseline). Authoritative for
    // the whole runtime: it is propagated into framework.metrics at
    // construction, so every merged_epoch() copy — and an analyze() run on
    // it — follows the same knob. The registry must outlive this framework
    // and every merged_epoch() copy that analyzes through it. Shard workers
    // write no telemetry: the driver bumps a counter at most once per
    // block, and the coordinator publishes each merged epoch's per-shard
    // tallies and ring gauges before wait_epoch() can return it. Series
    // carry no instance label: two live instances that share a registry add
    // into the same counters and overwrite each other's gauges, so give
    // each its own.
    obs::MetricsRegistry* metrics = &obs::MetricsRegistry::global();
  };

  // What one epoch boundary produces, computed on the MERGED sketch (the
  // Figure-1 collect/rotate loop's per-window output).
  struct EpochReport {
    std::size_t index = 0;
    // Items the shards applied: packets, or in kBytes mode (key, bytes)
    // pairs. With the cache on, a demotion collapses many packets into one
    // pair, so there `packets` undercounts and `bytes` is the exact total.
    std::uint64_t packets = 0;
    // Payload bytes this epoch, tallied per shard in the same worker loop
    // that applies the blocks (DESIGN.md §13.1).
    // Meaningful in kBytes mode (every pair carries its bytes, cache
    // demotions included); 0 in kPackets mode, where sizes never cross the
    // rings. The coordinator adds each shard's share to
    // fcm_runtime_shard_bytes_total{shard} (and `packets` to
    // fcm_runtime_shard_packets_total{shard}) as it merges the epoch.
    std::uint64_t bytes = 0;
    double cardinality = 0.0;
    std::vector<flow::FlowKey> heavy_hitters;   // re-qualified at global T
    // Telemetry derived while merging (also exported to the registry):
    double merge_seconds = 0.0;            // wall time of the N-way merge
    std::uint64_t overflow_promotions = 0; // FCM overflow trips this epoch
    // max-shard / mean-shard packet ratio (1.0 = perfectly balanced; only
    // meaningful when packets > 0 and shard_count > 1). Block rotation
    // bounds it by 1 + shard_count * common::kBatchBlock / packets.
    double fanout_imbalance = 1.0;
  };

  explicit ShardedFcmFramework(Options options);
  ~ShardedFcmFramework();

  ShardedFcmFramework(const ShardedFcmFramework&) = delete;
  ShardedFcmFramework& operator=(const ShardedFcmFramework&) = delete;

  // --- data plane (driver thread only) -----------------------------------
  // The key overloads count one packet per key; kBytes mode needs packet
  // sizes and rejects them (ContractViolation).
  void ingest(flow::FlowKey key);
  void ingest(const flow::Packet& packet);
  // Span overloads (DESIGN.md §9/§13): keys are copied in runs into the
  // open in-ring block, so one release store on the ring covers a whole
  // block and workers feed popped blocks into FcmFramework::process_batch —
  // the batched ingest kernel end to end, with no per-item ring traffic.
  void ingest(std::span<const flow::Packet> packets);
  void ingest(std::span<const flow::FlowKey> keys);

  // Closes the current epoch without stalling ingest: pushes epoch markers
  // and returns immediately; the coordinator thread drains, merges, and
  // publishes in the background while workers fill the other generation.
  // At most one rotation is in flight: if the previous epoch is still
  // merging, this call first waits for it (ingest from this thread pauses,
  // but the workers keep draining their rings meanwhile).
  // Returns the epoch index to pass to wait_epoch().
  std::size_t rotate_async();

  // rotate_async() + wait_epoch(): the blocking rotation.
  EpochReport rotate();

  // Flushes staged items (the heavy-flow cache included), drains and joins
  // all threads. Un-rotated tail traffic is not dropped: if any shard's
  // active generation holds packets, it is closed and merged as one final
  // epoch, counted by epochs_completed() and returned by merged_epoch(0).
  // With no traffic since the last rotation, stop() adds no epoch.
  // Idempotent; called by the destructor.
  void stop();

  // --- results (any thread) ----------------------------------------------
  // Blocks until epoch `index` (a rotate_async() return value) is merged.
  // Waiting ahead of rotate_async() is fine while the runtime runs. Throws
  // ContractViolation once stop() has finished with the epoch unmerged,
  // waking any caller blocked in here at that point.
  EpochReport wait_epoch(std::size_t index);

  // Copy of the merged framework for a completed epoch, `back` epochs before
  // the most recent one (0 = latest). Throws ContractViolation when no such
  // epoch is retained. The copy is a full serial-equivalent FcmFramework:
  // flow_size()/cardinality()/analyze() behave exactly as if one framework
  // had ingested the whole epoch.
  framework::FcmFramework merged_epoch(std::size_t back = 0) const;

  std::size_t epochs_completed() const;
  std::size_t shard_count() const noexcept { return shards_.size(); }
  const Options& options() const noexcept { return options_; }

  // Per-shard ring-occupancy high-water marks as a fraction of ring blocks
  // (approximate, see BlockQueue::high_water_blocks).
  // The scaling study's occupancy column. Safe from any thread.
  std::vector<double> queue_high_water() const;

  // Structural invariants of all shard replicas and retained merged epochs.
  // Only meaningful from the driver thread while no rotation is in flight,
  // or after stop().
  void check_invariants() const;

  // The registry series this runtime writes (all prefixed fcm_runtime_ /
  // fcm_sketch_), resolved once at construction so no write takes the
  // registry lock.
  struct Instruments;

 private:
  struct Shard;
  // A block reserved in the ring of shard rr_shard_, being filled in place.
  struct OpenBlock {
    flow::FlowKey* slots = nullptr;  // null => no block reserved
    std::uint32_t fill = 0;
  };

  void init_instruments();
  // Block staging (DESIGN.md §13): the driver is every ring's producer.
  // publish_block() hands the open block to shard rr_shard_ and moves the
  // cursor on to the next shard.
  void open_block() FCM_REQUIRES(driver_role_);
  void publish_block() FCM_REQUIRES(driver_role_);
  void stage_unit(flow::FlowKey key) FCM_REQUIRES(driver_role_);
  void stage_pair(flow::FlowKey key, std::uint32_t weight)
      FCM_REQUIRES(driver_role_);
  // A cache demotion of any weight, as one or more pairs.
  void stage_demotion(flow::FlowKey key, std::uint64_t weight)
      FCM_REQUIRES(driver_role_);
  // Span bodies shared by the ingest overloads.
  void ingest_keys(std::span<const flow::FlowKey> keys)
      FCM_REQUIRES(driver_role_);
  void ingest_packets(std::span<const flow::Packet> packets)
      FCM_REQUIRES(driver_role_);
  // Publishes the open block, full or partial; runs before the epoch markers
  // and at stop().
  void flush_staging() FCM_REQUIRES(driver_role_);
  // Cache front end (byte mode): per-packet offer (cache_ must be set), and
  // the epoch drain into the rings with counter publication (no-op without
  // a cache).
  void offer_cached(flow::FlowKey key, std::uint64_t count)
      FCM_REQUIRES(driver_role_);
  void drain_cache() FCM_REQUIRES(driver_role_);
  void worker_loop(Shard& shard);
  void coordinator_loop();

  Options options_;
  bool byte_mode_ = false;
  // The one data block kind this instance stages (kPairs in byte mode,
  // kUnitKeys otherwise). Set once at construction.
  std::uint32_t data_kind_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  // The "one driver thread" contract as a capability: the thread that calls
  // ingest()/rotate*/stop() owns this role (asserted at those entry points),
  // and everything below it is driver-private state.
  common::ThreadRole driver_role_;
  bool stopped_ FCM_GUARDED_BY(driver_role_) = false;
  // Staging: the one open block, and the shard whose ring holds it (the
  // block rotation cursor).
  OpenBlock open_ FCM_GUARDED_BY(driver_role_);
  std::size_t rr_shard_ FCM_GUARDED_BY(driver_role_) = 0;
  // Driver-side heavy-flow cache (null when cache_entries == 0) and its
  // registry series (registered only with the cache on).
  std::unique_ptr<datapath::HeavyFlowCache> cache_ FCM_GUARDED_BY(driver_role_);
  datapath::CacheMetrics cache_metrics_ FCM_GUARDED_BY(driver_role_);
  // Worker shutdown flag (set by stop() after the final flush) —
  // control state, not telemetry, so it is exempt from the raw-atomic rule.
  std::atomic<bool> stop_{false};  // fcm-lint: allow(raw-atomic)

  // Epoch machinery. All cross-thread state below is guarded by mutex_;
  // worker-side per-shard state is published via the shard's flip counter
  // in shard_flips_ (written under mutex_, so mutex acquire/release orders
  // replica access).
  mutable common::Mutex mutex_;
  std::condition_variable_any cv_;
  std::size_t rotations_requested_ FCM_GUARDED_BY(mutex_) = 0;  // markers pushed
  std::size_t epochs_merged_ FCM_GUARDED_BY(mutex_) = 0;  // merged & published
  bool coordinator_stop_ FCM_GUARDED_BY(mutex_) = false;
  // Per-shard generation-flip counters, indexed by Shard::index (kept here,
  // not in Shard, so the guarded-by relation names a capability the analysis
  // can track).
  std::vector<std::size_t> shard_flips_ FCM_GUARDED_BY(mutex_);
  // Retained merged epochs, oldest first; front().report.index is the
  // oldest epoch wait_epoch() can still return.
  struct Epoch {
    framework::FcmFramework merged;
    EpochReport report;
  };
  std::deque<Epoch> history_ FCM_GUARDED_BY(mutex_);

  // Null when Options::metrics == nullptr. Written by the driver and the
  // coordinator, never by a shard worker.
  std::unique_ptr<Instruments> instruments_;

  // Threads last: their loops touch everything above.
  std::jthread coordinator_;
};

}  // namespace fcm::runtime
