// Update/query throughput of every sketch (google-benchmark), plus the
// sharded-runtime scaling study.
// Not a paper figure per se; it substantiates §8.3's accuracy-complexity
// trade-off discussion (FCM costs more per update than CM in sequential
// software, which the pipeline hides in hardware). The scaling study
// measures how ShardedFcmFramework (DESIGN.md §7) recovers the hardware's
// parallelism in software: serial FcmFramework baseline vs. sharded ingest
// at N in {1, 2, 4, 8}, with machine-readable results in
// BENCH_throughput.json.
//
// The scaling study doubles as the observability overhead gate: every
// sharded configuration is timed twice, once with Options::metrics == nullptr
// (uninstrumented) and once against the global registry, and the JSON
// records the relative cost (DESIGN.md §8 budgets it at < 2%).
//
// The kernel-tier study (DESIGN.md §14) times the same serial ingest under
// every kernel tier the machine supports — scalar and the hand-written AVX2
// kernel — by forcing the dispatch in-process. The tiers
// are bit-exact (tests/test_batch_equivalence.cpp), so the per-tier ratios
// are pure kernel speedups; `avx2_index_speedup_vs_scalar` is the ratio
// check_perf_baseline.py holds to the >= 2.5x acceptance floor.
//
// Flags: --scaling-only        run just the scaling study (skip micro-benches)
//        --kernels-only        run just the kernel-tier study and write a
//                              small fcm.bench.kernels.v1 JSON (CI perf-smoke
//                              runs this once per FCM_FORCE_KERNEL tier)
//        --sweep               run the flush_batch x queue_capacity operating-
//                              point sweep instead (table for EXPERIMENTS.md)
//        --json=PATH           where to write the JSON (default
//                              BENCH_throughput.json in the CWD)
//        --seed=N              trace seed (default 1; common/random.h PRNG)
//        --metrics-json=PATH   export a fcm.metrics.v1 snapshot on exit
// Remaining arguments are forwarded to google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/hash.h"
#include "common/simd_dispatch.h"
#include "datapath/heavy_flow_cache.h"
#include "fcm/fcm_estimator.h"
#include "flow/synthetic.h"
#include "framework/fcm_framework.h"
#include "obs/metrics_registry.h"
#include "runtime/sharded_framework.h"
#include "sketch/cm_sketch.h"
#include "sketch/elastic_sketch.h"
#include "sketch/hashpipe.h"
#include "sketch/mrac.h"
#include "sketch/pyramid_sketch.h"
#include "sketch/univmon.h"

#ifndef FCM_GIT_REV
#define FCM_GIT_REV "unknown"
#endif

namespace {

using namespace fcm;

constexpr std::size_t kMemory = 600'000;

// Set from --seed before the first shared_trace() call.
std::uint64_t g_trace_seed = 1;

const flow::Trace& shared_trace() {
  static const flow::Trace trace = [] {
    flow::SyntheticTraceConfig config;
    config.packet_count = 1 << 18;
    config.flow_count = 20000;
    config.seed = g_trace_seed;
    return flow::SyntheticTraceGenerator(config).generate();
  }();
  return trace;
}

// Dispersed-flow trace for the scaling study (EXPERIMENTS.md, throughput
// methodology). The micro-bench trace above (20k flows, Zipf 1.1) keeps its
// hot counters L1-resident, which is the right regime for comparing sketch
// *algorithms*. The scaling study runs FCM's own regime instead: a flow table
// comparable to the sketch's leaf width (§7: 10^5..10^6 flows over a few
// hundred KB). Same Zipf 1.1 skew, flow population raised so leaf accesses
// spread over the whole level-1 array. That array is 1.74 MiB for the two
// 600 KB trees, so on a 2 MiB L2 most leaf accesses still hit L2; and 44% of
// the per-tree updates land on an overflowed leaf, which the batched kernel
// (DESIGN.md §9) settles in its level-2 pass. Both matter as much as the
// prefetches.
const flow::Trace& scaling_trace() {
  static const flow::Trace trace = [] {
    flow::SyntheticTraceConfig config;
    config.packet_count = 1 << 18;
    config.flow_count = 1 << 20;
    config.seed = g_trace_seed;
    return flow::SyntheticTraceGenerator(config).generate();
  }();
  return trace;
}

// Skewed trace for the heavy-flow-cache study (DESIGN.md §12). Zipf 1.3 is
// the regime the cache targets: a handful of elephant flows carry most
// packets, so the exact-match cache absorbs them in L1/L2 and the sketch
// only sees the cold tail. Same dispersed flow population as the scaling
// trace so the cache-off column pays the same leaf-access misses.
const flow::Trace& cache_trace() {
  static const flow::Trace trace = [] {
    flow::SyntheticTraceConfig config;
    config.packet_count = 1 << 18;
    config.flow_count = 1 << 20;
    config.zipf_alpha = 1.3;
    config.seed = g_trace_seed;
    return flow::SyntheticTraceGenerator(config).generate();
  }();
  return trace;
}

template <typename MakeSketch>
void run_update_bench(benchmark::State& state, MakeSketch make) {
  const flow::Trace& trace = shared_trace();
  auto sketch = make();
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.update(trace.packets()[i].key);
    i = (i + 1) & (trace.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}

template <typename MakeSketch>
void run_query_bench(benchmark::State& state, MakeSketch make) {
  const flow::Trace& trace = shared_trace();
  auto sketch = make();
  for (std::size_t i = 0; i < trace.size() / 4; ++i) {
    sketch.update(trace.packets()[i].key);
  }
  std::size_t i = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += sketch.query(trace.packets()[i].key);
    i = (i + 1) & (trace.size() - 1);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}

void BM_UpdateFcm(benchmark::State& state) {
  run_update_bench(state, [] {
    return core::FcmEstimator(core::FcmConfig::for_memory(kMemory, 2, 8, {8, 16, 32}));
  });
}
void BM_UpdateFcmTopK(benchmark::State& state) {
  run_update_bench(state, [] {
    return core::FcmTopKEstimator(core::FcmTopK::for_memory(kMemory, 2, 16));
  });
}
void BM_UpdateCm(benchmark::State& state) {
  run_update_bench(state, [] { return sketch::CmSketch::for_memory(kMemory); });
}
void BM_UpdateCu(benchmark::State& state) {
  run_update_bench(state, [] { return sketch::CuSketch::for_memory(kMemory); });
}
void BM_UpdatePcm(benchmark::State& state) {
  run_update_bench(state, [] { return sketch::PyramidCmSketch::for_memory(kMemory); });
}
void BM_UpdateMrac(benchmark::State& state) {
  run_update_bench(state, [] { return sketch::Mrac::for_memory(kMemory); });
}
void BM_UpdateHashPipe(benchmark::State& state) {
  run_update_bench(state, [] { return sketch::HashPipe::for_memory(kMemory); });
}
void BM_UpdateElastic(benchmark::State& state) {
  run_update_bench(state, [] { return sketch::ElasticSketch::for_memory(kMemory); });
}
void BM_UpdateUnivMon(benchmark::State& state) {
  run_update_bench(state, [] { return sketch::UnivMon::for_memory(kMemory); });
}

void BM_QueryFcm(benchmark::State& state) {
  run_query_bench(state, [] {
    return core::FcmEstimator(core::FcmConfig::for_memory(kMemory, 2, 8, {8, 16, 32}));
  });
}
void BM_QueryCm(benchmark::State& state) {
  run_query_bench(state, [] { return sketch::CmSketch::for_memory(kMemory); });
}
void BM_QueryElastic(benchmark::State& state) {
  run_query_bench(state, [] { return sketch::ElasticSketch::for_memory(kMemory); });
}

BENCHMARK(BM_UpdateFcm);
BENCHMARK(BM_UpdateFcmTopK);
BENCHMARK(BM_UpdateCm);
BENCHMARK(BM_UpdateCu);
BENCHMARK(BM_UpdatePcm);
BENCHMARK(BM_UpdateMrac);
BENCHMARK(BM_UpdateHashPipe);
BENCHMARK(BM_UpdateElastic);
BENCHMARK(BM_UpdateUnivMon);
BENCHMARK(BM_QueryFcm);
BENCHMARK(BM_QueryCm);
BENCHMARK(BM_QueryElastic);

// --- sharded-runtime scaling study ------------------------------------------

// Each configuration (serial, and N shards for N in {1, 2, 4, 8}) is timed
// in TWO columns: `scalar` drives the per-packet entry points
// (process(key) / ingest(key)); `batch` drives the span entry points that
// engage the batched ingest kernel (DESIGN.md §9: bulk hashing, level-1
// prefetch, compacted level-1 and level-2 passes). Both columns produce bit-identical
// sketch state (tests/test_batch_equivalence.cpp), so the ratio is a pure
// kernel speedup. The scalar/batch pair is interleaved repeat-by-repeat and
// best-of-9 per side (EXPERIMENTS.md, throughput methodology), which makes
// the in-run `batch_speedup` ratio robust to frequency drift and mostly
// machine-independent — that ratio, not the absolute pps, is what
// tools/check_perf_baseline.py guards in CI.
struct ScalingPoint {
  std::size_t shards = 0;        // 0 = serial baseline
  double scalar_pps = 0.0;       // per-packet entry points, uninstrumented
  double batch_pps = 0.0;        // span entry points, uninstrumented
  double batch_speedup = 1.0;    // batch_pps / scalar_pps (same config)
  double speedup_vs_serial = 1.0;  // batch_pps vs. the serial batch column
  double batch_pps_metrics = 0.0;  // batch path, global registry wired
  // max(0, (batch_pps - batch_pps_metrics) / batch_pps): both columns are
  // best-of the SAME interleaved repeats, so any residual negative value is
  // timer noise (the instrumented run happened to land on a quieter slice)
  // and the column is clamped to zero rather than reporting a nonsensical
  // "metrics make it faster".
  double metrics_overhead_pct = 0.0;
  // Characterization column (one dedicated run): per-shard ring-occupancy
  // high-water as a fraction of ring blocks.
  std::vector<double> queue_high_water;
};

// Interleaved best-of-9 (EXPERIMENTS.md): each repeat times every column
// once before any column repeats.
constexpr int kInterleavedRepeats = 9;

double time_packets_per_sec(const flow::Trace& trace,
                            const std::function<void()>& run) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  run();
  const auto elapsed = std::chrono::duration<double>(clock::now() - start);
  return static_cast<double>(trace.size()) / elapsed.count();
}

std::vector<ScalingPoint> run_scaling_study(const flow::Trace& trace) {
  framework::FcmFramework::Options fw;
  fw.fcm = core::FcmConfig::for_memory(kMemory, 2, 8, {8, 16, 32});

  // The batch columns ingest pre-stripped keys; strip once, outside the
  // timed region (a real packet path has the keys in hand either way).
  std::vector<flow::FlowKey> keys;
  keys.reserve(trace.size());
  for (const flow::Packet& packet : trace.packets()) keys.push_back(packet.key);
  const std::span<const flow::FlowKey> key_span(keys);

  std::vector<ScalingPoint> points;

  // Serial baseline: one framework, driver thread does everything. The
  // serial ingest path carries no instrumentation (analyze()-only), so the
  // metrics column equals the batch column.
  ScalingPoint serial;
  serial.shards = 0;
  for (int r = 0; r < kInterleavedRepeats; ++r) {
    {
      framework::FcmFramework framework(fw);
      serial.scalar_pps =
          std::max(serial.scalar_pps, time_packets_per_sec(trace, [&] {
            for (const flow::FlowKey key : keys) framework.process(key);
          }));
    }
    {
      framework::FcmFramework framework(fw);
      serial.batch_pps =
          std::max(serial.batch_pps, time_packets_per_sec(trace, [&] {
            framework.process_batch(key_span);
          }));
    }
  }
  serial.batch_speedup = serial.batch_pps / serial.scalar_pps;
  serial.batch_pps_metrics = serial.batch_pps;
  points.push_back(serial);

  const auto run_once = [&](std::size_t shards, bool batch, bool with_metrics) {
    runtime::ShardedFcmFramework::Options options;
    options.framework = fw;
    options.shard_count = shards;
    options.metrics = with_metrics ? &obs::MetricsRegistry::global() : nullptr;
    runtime::ShardedFcmFramework sharded(options);
    // Ingest + rotate: the honest end-to-end cost of one epoch, including
    // the final merge (which the runtime overlaps with the NEXT epoch's
    // ingest in steady state; a single epoch pays it at the end).
    return time_packets_per_sec(trace, [&] {
      if (batch) {
        sharded.ingest(key_span);
      } else {
        for (const flow::FlowKey key : keys) sharded.ingest(key);
      }
      sharded.rotate();
    });
  };

  // One dedicated (untimed-column) run per shard count that characterizes
  // the block hand-off: queue_high_water() reads the ring occupancy peaks
  // after the rotation.
  const auto characterize = [&](ScalingPoint& point) {
    runtime::ShardedFcmFramework::Options options;
    options.framework = fw;
    options.shard_count = point.shards;
    options.metrics = nullptr;
    runtime::ShardedFcmFramework sharded(options);
    sharded.ingest(key_span);
    sharded.rotate();
    point.queue_high_water = sharded.queue_high_water();
  };

  // All three timed columns (scalar, batch, batch+metrics) are interleaved
  // repeat-by-repeat so scheduler and frequency drift hit them equally;
  // best-of-9 per column then isolates the kernel speedup and the
  // instrumentation cost (the latter budgeted < 2%, DESIGN.md §8).
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    ScalingPoint point;
    point.shards = shards;
    for (int r = 0; r < kInterleavedRepeats; ++r) {
      point.scalar_pps =
          std::max(point.scalar_pps, run_once(shards, false, false));
      point.batch_pps = std::max(point.batch_pps, run_once(shards, true, false));
      point.batch_pps_metrics =
          std::max(point.batch_pps_metrics, run_once(shards, true, true));
    }
    point.batch_speedup = point.batch_pps / point.scalar_pps;
    point.speedup_vs_serial = point.batch_pps / serial.batch_pps;
    point.metrics_overhead_pct = std::max(
        0.0,
        100.0 * (point.batch_pps - point.batch_pps_metrics) / point.batch_pps);
    characterize(point);
    points.push_back(point);
  }
  return points;
}

// --- block/ring operating-point sweep (--sweep) -------------------------------

// Grid over the two hand-off knobs: flush_batch (block size == the
// process_batch run length workers pop) and queue_capacity (ring depth in
// items; blocks = capacity / flush_batch). Printed as a table for
// EXPERIMENTS.md — the defaults committed in Options are chosen from this
// sweep, not hard-coded on faith. Best-of-3 per cell (a full grid at
// best-of-9 would run for minutes without changing the ranking).
void run_block_sweep(const flow::Trace& trace) {
  framework::FcmFramework::Options fw;
  fw.fcm = core::FcmConfig::for_memory(kMemory, 2, 8, {8, 16, 32});
  std::vector<flow::FlowKey> keys;
  keys.reserve(trace.size());
  for (const flow::Packet& packet : trace.packets()) keys.push_back(packet.key);
  const std::span<const flow::FlowKey> key_span(keys);

  constexpr std::size_t kFlushBatches[] = {16, 32, 64, 128, 256};
  constexpr std::size_t kCapacities[] = {1 << 12, 1 << 14, 1 << 16};
  for (const std::size_t shards : {1u, 4u}) {
    std::printf("\nblock sweep, %u shard%s (batch ingest pps, best of 3)\n",
                static_cast<unsigned>(shards), shards == 1 ? "" : "s");
    std::printf("%-14s", "flush_batch");
    for (const std::size_t capacity : kCapacities) {
      std::printf(" %11s=%-5zu", "capacity", capacity);
    }
    std::printf("\n");
    for (const std::size_t flush_batch : kFlushBatches) {
      std::printf("%-14zu", flush_batch);
      for (const std::size_t capacity : kCapacities) {
        double best = 0.0;
        for (int r = 0; r < 3; ++r) {
          runtime::ShardedFcmFramework::Options options;
          options.framework = fw;
          options.shard_count = shards;
          options.flush_batch = flush_batch;
          options.queue_capacity = capacity;
          options.metrics = nullptr;
          runtime::ShardedFcmFramework sharded(options);
          best = std::max(best, time_packets_per_sec(trace, [&] {
                            sharded.ingest(key_span);
                            sharded.rotate();
                          }));
        }
        std::printf(" %17.0f", best);
      }
      std::printf("\n");
    }
  }
}

// --- heavy-flow-cache study --------------------------------------------------

// Cache-on vs cache-off byte counting on the skewed trace, interleaved
// best-of-9 like the scaling study. Cache-on is the runtime driver's stage
// composed inline: offer each packet's bytes, demote evictions as weighted
// adds, and drain the residents at the end (the rotation fold, timed too).
// Cache-off adds every packet's bytes to the sketch. `cache_speedup` is an
// in-run ratio (same process, same machine) so it cancels CPU model and
// frequency — that ratio is what tools/check_perf_baseline.py guards
// (acceptance: >= 1.2x at Zipf 1.3, byte counts only; DESIGN.md §12.4).
struct CacheStudy {
  double zipf_alpha = 1.3;
  std::size_t cache_entries = 0;
  std::size_t cache_ways = 0;
  double plain_pps = 0.0;    // byte-mode FcmFramework::process, no cache
  double cached_pps = 0.0;   // HeavyFlowCache in front of the same framework
  double cache_speedup = 1.0;  // cached_pps / plain_pps
  double hit_rate = 0.0;     // cache hits / offers on the final repeat
};

CacheStudy run_cache_study(const flow::Trace& trace) {
  framework::FcmFramework::Options fw;
  fw.fcm = core::FcmConfig::for_memory(kMemory, 2, 8, {8, 16, 32});
  fw.count_mode = framework::FcmFramework::CountMode::kBytes;
  fw.metrics = nullptr;
  const std::span<const flow::Packet> packets(trace.packets());
  const datapath::HeavyFlowCache::Options cache_options;

  CacheStudy study;
  study.cache_entries = cache_options.entries;
  study.cache_ways = cache_options.ways;
  for (int r = 0; r < kInterleavedRepeats; ++r) {
    {
      framework::FcmFramework framework(fw);
      study.plain_pps =
          std::max(study.plain_pps, time_packets_per_sec(trace, [&] {
            framework.process(packets);
          }));
    }
    {
      framework::FcmFramework framework(fw);
      datapath::HeavyFlowCache cache(cache_options);
      study.cached_pps =
          std::max(study.cached_pps, time_packets_per_sec(trace, [&] {
            for (const flow::Packet& packet : packets) {
              const datapath::HeavyFlowCache::Result result =
                  cache.offer(packet.key, packet.bytes);
              if (result.demote_count > 0) {
                framework.process_weighted(result.demote_key,
                                           result.demote_count);
              }
            }
            cache.drain([&](flow::FlowKey key, std::uint64_t bytes) {
              framework.process_weighted(key, bytes);
            });
          }));
      const std::uint64_t offers = cache.hits() + cache.misses();
      if (offers > 0) {
        study.hit_rate = static_cast<double>(cache.hits()) /
                         static_cast<double>(offers);
      }
    }
  }
  study.cache_speedup = study.cached_pps / study.plain_pps;
  return study;
}

// --- per-kernel-tier study (DESIGN.md §14) -----------------------------------

namespace simd = common::simd;

// One row per kernel tier, every column forced to that tier in-process via
// force_kernel_tier(). All rows run in one process on one machine and the
// tiers are bit-exact, so the cross-row ratios are pure kernel speedups —
// machine-portable the same way batch_speedup and cache_speedup are.
struct KernelTierPoint {
  simd::KernelTier tier = simd::KernelTier::kScalar;
  // SeededHash::index_batch alone, kBatchBlock chunks over the dispersed
  // trace: the hash+fast-range kernel the AVX2 TU vectorizes.
  double index_keys_per_sec = 0.0;
  // Serial FcmFramework::process_batch — hash kernel + level-1 fast path.
  double ingest_pps = 0.0;
};

struct KernelStudy {
  bool cpu_supports_avx2 = false;
  std::string forced_env;   // FCM_FORCE_KERNEL at startup ("" when unset)
  std::string active_tier;  // what the dispatch resolved before any forcing
  std::vector<KernelTierPoint> points;
  // avx2 row / scalar row; 0 when either row is absent (non-AVX2 machine or
  // a forced single-tier run).
  double avx2_index_speedup = 0.0;
  double avx2_ingest_speedup = 0.0;
};

KernelStudy run_kernel_study(const flow::Trace& trace) {
  KernelStudy study;
  study.cpu_supports_avx2 = simd::cpu_supports_avx2();
  study.active_tier = std::string(simd::kernel_tier_name(simd::active_kernel_tier()));
  const char* forced = std::getenv("FCM_FORCE_KERNEL");
  if (forced != nullptr) study.forced_env = forced;

  // A forced run (CI perf-smoke) measures only the forced tier — the smoke
  // wants one fast per-tier datapoint per job, not the full matrix. An
  // unforced run measures every tier the machine can execute.
  std::vector<simd::KernelTier> tiers;
  const std::optional<simd::KernelTier> forced_tier =
      forced != nullptr ? simd::parse_kernel_tier(forced) : std::nullopt;
  if (forced_tier.has_value()) {
    tiers.push_back(simd::resolve_kernel_tier());  // honors avx2 fallback
  } else {
    tiers.push_back(simd::KernelTier::kScalar);
    if (study.cpu_supports_avx2) tiers.push_back(simd::KernelTier::kAvx2);
  }
  study.points.resize(tiers.size());
  for (std::size_t t = 0; t < tiers.size(); ++t) study.points[t].tier = tiers[t];

  framework::FcmFramework::Options fw;
  fw.fcm = core::FcmConfig::for_memory(kMemory, 2, 8, {8, 16, 32});

  std::vector<flow::FlowKey> keys;
  keys.reserve(trace.size());
  for (const flow::Packet& packet : trace.packets()) keys.push_back(packet.key);
  const std::span<const flow::FlowKey> key_span(keys);

  // The index column hashes into a dispersed non-power-of-two table so the
  // Lemire reduction is exercised the way FCM's leaf stage uses it.
  const common::SeededHash hash(static_cast<std::uint32_t>(g_trace_seed));
  constexpr std::size_t kIndexWidth = 600'011;

  // Tiers interleaved repeat-by-repeat, best-of-9 per column, like every
  // other ratio this bench guards.
  for (int r = 0; r < kInterleavedRepeats; ++r) {
    for (KernelTierPoint& point : study.points) {
      simd::force_kernel_tier(point.tier);
      {
        std::uint32_t idx[common::kBatchBlock];
        std::uint32_t sink = 0;
        point.index_keys_per_sec =
            std::max(point.index_keys_per_sec, time_packets_per_sec(trace, [&] {
              for (std::size_t base = 0; base < keys.size();
                   base += common::kBatchBlock) {
                const std::size_t n =
                    std::min(common::kBatchBlock, keys.size() - base);
                hash.index_batch(key_span.subspan(base, n), kIndexWidth,
                                 std::span<std::uint32_t>(idx, n));
                sink += idx[0];
              }
            }));
        benchmark::DoNotOptimize(sink);
      }
      {
        framework::FcmFramework framework(fw);
        point.ingest_pps =
            std::max(point.ingest_pps, time_packets_per_sec(trace, [&] {
              framework.process_batch(key_span);
            }));
      }
    }
  }
  simd::force_kernel_tier(std::nullopt);

  const KernelTierPoint* scalar = nullptr;
  const KernelTierPoint* avx2 = nullptr;
  for (const KernelTierPoint& point : study.points) {
    if (point.tier == simd::KernelTier::kScalar) scalar = &point;
    if (point.tier == simd::KernelTier::kAvx2) avx2 = &point;
  }
  if (scalar != nullptr && avx2 != nullptr) {
    study.avx2_index_speedup = avx2->index_keys_per_sec / scalar->index_keys_per_sec;
    study.avx2_ingest_speedup = avx2->ingest_pps / scalar->ingest_pps;
  }
  return study;
}

void write_kernels_object(std::ostream& out, const KernelStudy& study,
                          const char* indent) {
  out << indent << "\"kernels\": {\n";
  out << indent << "  \"cpu_supports_avx2\": "
      << (study.cpu_supports_avx2 ? "true" : "false") << ",\n";
  if (study.forced_env.empty()) {
    out << indent << "  \"forced_env\": null,\n";
  } else {
    out << indent << "  \"forced_env\": \"" << study.forced_env << "\",\n";
  }
  out << indent << "  \"active_tier\": \"" << study.active_tier << "\",\n";
  out << indent << "  \"tiers\": [\n";
  for (std::size_t i = 0; i < study.points.size(); ++i) {
    const KernelTierPoint& point = study.points[i];
    out << indent << "    {\"tier\": \"" << simd::kernel_tier_name(point.tier)
        << "\", \"index_keys_per_sec\": " << point.index_keys_per_sec
        << ", \"ingest_packets_per_sec\": " << point.ingest_pps << "}"
        << (i + 1 < study.points.size() ? "," : "") << "\n";
  }
  out << indent << "  ],\n";
  out << indent << "  \"avx2_index_speedup_vs_scalar\": "
      << study.avx2_index_speedup << ",\n";
  out << indent << "  \"avx2_ingest_speedup_vs_scalar\": "
      << study.avx2_ingest_speedup << "\n";
  out << indent << "}";
}

void write_kernels_json(const std::string& path, const flow::Trace& trace,
                        const KernelStudy& study) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_throughput: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"kernel_dispatch\",\n";
  out << "  \"schema\": \"fcm.bench.kernels.v1\",\n";
  out << "  \"packet_count\": " << trace.size() << ",\n";
  out << "  \"seed\": " << g_trace_seed << ",\n";
  out << "  \"repeats\": " << kInterleavedRepeats << ",\n";
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"git_rev\": \"" << FCM_GIT_REV << "\",\n";
  write_kernels_object(out, study, "  ");
  out << "\n}\n";
}

void print_kernel_study(const KernelStudy& study) {
  std::printf("\nkernel-tier study (cpu avx2: %s, active tier: %s%s%s, "
              "best of %d interleaved)\n",
              study.cpu_supports_avx2 ? "yes" : "no",
              study.active_tier.c_str(),
              study.forced_env.empty() ? "" : ", FCM_FORCE_KERNEL=",
              study.forced_env.c_str(), kInterleavedRepeats);
  std::printf("%-10s %16s %14s\n", "tier", "index keys/s", "ingest pps");
  for (const KernelTierPoint& point : study.points) {
    std::printf("%-10s %16.0f %14.0f\n",
                std::string(simd::kernel_tier_name(point.tier)).c_str(),
                point.index_keys_per_sec, point.ingest_pps);
  }
  if (study.avx2_index_speedup > 0.0) {
    std::printf("avx2 vs scalar: index %.2fx, ingest %.2fx\n",
                study.avx2_index_speedup, study.avx2_ingest_speedup);
    std::printf("acceptance: avx2 index kernel >= 2.5x scalar "
                "(check_perf_baseline.py, AVX2 machines)\n");
  }
}

void write_scaling_json(const std::string& path, const flow::Trace& trace,
                        const std::vector<ScalingPoint>& points,
                        const CacheStudy& cache, const KernelStudy& kernels) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_throughput: cannot write %s\n", path.c_str());
    return;
  }
  const ScalingPoint* serial = nullptr;
  for (const ScalingPoint& p : points) {
    if (p.shards == 0) serial = &p;
  }
  out << "{\n";
  out << "  \"bench\": \"sharded_runtime_scaling\",\n";
  out << "  \"schema\": \"fcm.bench.throughput.v5\",\n";
  out << "  \"packet_count\": " << trace.size() << ",\n";
  out << "  \"seed\": " << g_trace_seed << ",\n";
  out << "  \"repeats\": " << kInterleavedRepeats << ",\n";
  out << "  \"fanout\": \"block_rotation\",\n";
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"git_rev\": \"" << FCM_GIT_REV << "\",\n";
  out << "  \"serial\": {\"scalar_packets_per_sec\": " << serial->scalar_pps
      << ", \"batch_packets_per_sec\": " << serial->batch_pps
      << ", \"batch_speedup\": " << serial->batch_speedup << "},\n";
  out << "  \"cache\": {\"count_mode\": \"bytes\""
      << ", \"zipf_alpha\": " << cache.zipf_alpha
      << ", \"cache_entries\": " << cache.cache_entries
      << ", \"cache_ways\": " << cache.cache_ways
      << ", \"plain_packets_per_sec\": " << cache.plain_pps
      << ", \"cached_packets_per_sec\": " << cache.cached_pps
      << ", \"cache_speedup\": " << cache.cache_speedup
      << ", \"hit_rate\": " << cache.hit_rate << "},\n";
  write_kernels_object(out, kernels, "  ");
  out << ",\n";
  out << "  \"sharded\": [\n";
  bool first = true;
  for (const ScalingPoint& p : points) {
    if (p.shards == 0) continue;
    if (!first) out << ",\n";
    first = false;
    out << "    {\"shards\": " << p.shards
        << ", \"scalar_packets_per_sec\": " << p.scalar_pps
        << ", \"batch_packets_per_sec\": " << p.batch_pps
        << ", \"batch_speedup\": " << p.batch_speedup
        << ", \"speedup_vs_serial\": " << p.speedup_vs_serial
        << ", \"batch_packets_per_sec_metrics\": " << p.batch_pps_metrics
        << ", \"metrics_overhead_pct\": " << p.metrics_overhead_pct
        << ", \"queue_high_water\": [";
    for (std::size_t i = 0; i < p.queue_high_water.size(); ++i) {
      if (i > 0) out << ", ";
      out << p.queue_high_water[i];
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
}

void print_scaling(const std::vector<ScalingPoint>& points) {
  std::printf("\nsharded-runtime scaling (block rotation, %u hardware threads, "
              "best of %d interleaved)\n",
              std::thread::hardware_concurrency(), kInterleavedRepeats);
  std::printf("%-10s %14s %14s %8s %8s %14s %9s %9s\n", "config",
              "scalar pps", "batch pps", "batch x", "vs ser", "w/metrics",
              "overhead", "occ max");
  for (const ScalingPoint& p : points) {
    const double occupancy_max =
        p.queue_high_water.empty()
            ? 0.0
            : *std::max_element(p.queue_high_water.begin(),
                                p.queue_high_water.end());
    std::printf("%-10s %14.0f %14.0f %7.2fx %7.2fx %14.0f %8.2f%% %8.1f%%\n",
                p.shards == 0 ? "serial"
                              : (std::to_string(p.shards) + " shards").c_str(),
                p.scalar_pps, p.batch_pps, p.batch_speedup, p.speedup_vs_serial,
                p.batch_pps_metrics, p.metrics_overhead_pct,
                100.0 * occupancy_max);
  }
  std::printf("acceptance: serial batch_speedup >= 1.5x; metrics overhead "
              "< 2%% (DESIGN.md §8/§9)\n");
}

void print_cache_study(const CacheStudy& cache) {
  std::printf("\nheavy-flow cache (byte counts, Zipf %.1f skewed trace, %zu "
              "entries x %zu ways, best of %d interleaved)\n",
              cache.zipf_alpha, cache.cache_entries, cache.cache_ways,
              kInterleavedRepeats);
  std::printf("%-10s %14s %14s %8s %9s\n", "config", "plain pps", "cached pps",
              "cache x", "hit rate");
  std::printf("%-10s %14.0f %14.0f %7.2fx %8.1f%%\n", "serial",
              cache.plain_pps, cache.cached_pps, cache.cache_speedup,
              100.0 * cache.hit_rate);
  std::printf("acceptance: cache_speedup >= 1.2x on the skewed trace "
              "(DESIGN.md §12.4)\n");
}

}  // namespace

int main(int argc, char** argv) {
  fcm::bench::BenchCli cli = fcm::bench::BenchCli::parse(argc, argv);
  g_trace_seed = cli.seed;

  bool scaling_only = false;
  bool kernels_only = false;
  bool sweep = false;
  std::string json_path = "BENCH_throughput.json";
  std::vector<char*> forwarded;
  for (std::size_t i = 0; i < cli.forwarded.size(); ++i) {
    const std::string arg = cli.forwarded[i];
    if (i == 0) {
      forwarded.push_back(cli.forwarded[i]);  // argv[0]
    } else if (arg == "--scaling-only") {
      scaling_only = true;
    } else if (arg == "--kernels-only") {
      kernels_only = true;
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      forwarded.push_back(cli.forwarded[i]);
    }
  }

  const fcm::flow::Trace& trace = scaling_trace();
  if (sweep) {
    // Operating-point sweep only: the table EXPERIMENTS.md records the
    // flush_batch / queue_capacity choice from.
    run_block_sweep(trace);
    cli.finish();
    return 0;
  }
  if (kernels_only) {
    // CI perf-smoke entry: one fast kernel-tier datapoint (all tiers when
    // unforced, just the forced one under FCM_FORCE_KERNEL), small JSON.
    const KernelStudy kernels = run_kernel_study(trace);
    print_kernel_study(kernels);
    write_kernels_json(json_path, trace, kernels);
    std::printf("wrote %s\n", json_path.c_str());
    cli.finish();
    return 0;
  }
  const std::vector<ScalingPoint> points = run_scaling_study(trace);
  print_scaling(points);
  const CacheStudy cache = run_cache_study(cache_trace());
  print_cache_study(cache);
  const KernelStudy kernels = run_kernel_study(trace);
  print_kernel_study(kernels);
  write_scaling_json(json_path, trace, points, cache, kernels);
  std::printf("wrote %s\n", json_path.c_str());

  if (scaling_only) {
    cli.finish();
    return 0;
  }

  int forwarded_argc = static_cast<int>(forwarded.size());
  benchmark::Initialize(&forwarded_argc, forwarded.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded_argc, forwarded.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  cli.finish();
  return 0;
}
