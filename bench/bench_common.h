// Shared plumbing for the per-figure/table bench harnesses.
//
// Every harness reproduces one table or figure from the paper (see
// DESIGN.md §3). Traces and sketch memory are both scaled by FCM_SCALE
// (default 0.15) so the sketches operate at the paper's load factor; run
// with FCM_SCALE=full for the paper's exact 20M-packet / 1.5MB setup.
// FCM_TRACE=<capture.pcap> swaps the synthetic CAIDA-like trace for a real
// pcap or pcapng capture (e.g. a CAIDA Equinix trace), decoded by the
// hardened datapath (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "datapath/capture_ingest.h"
#include "fcm/fcm_estimator.h"
#include "flow/synthetic.h"
#include "metrics/evaluator.h"
#include "metrics/table.h"
#include "obs/metrics_registry.h"

namespace fcm::bench {

// Shared CLI for every bench harness. All bench randomness flows through
// common/random.h (Xoshiro256 inside SyntheticTraceGenerator), keyed by one
// --seed so any figure can be reproduced bit-for-bit:
//   --seed=N             workload RNG seed (default 1)
//   --metrics-json=PATH  on exit, write a fcm.metrics.v1 snapshot of the
//                        global obs::MetricsRegistry to PATH
struct BenchCli {
  std::uint64_t seed = 1;
  std::string metrics_json;
  std::vector<char*> forwarded;  // argv[0] plus unrecognized arguments

  // Parses known flags, collecting unknown ones into `forwarded` for
  // harnesses (bench_throughput) that layer their own flags on top.
  static BenchCli parse(int argc, char** argv) {
    BenchCli cli;
    if (argc > 0) cli.forwarded.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--seed=", 0) == 0) {
        cli.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
      } else if (arg.rfind("--metrics-json=", 0) == 0) {
        cli.metrics_json = arg.substr(15);
      } else {
        cli.forwarded.push_back(argv[i]);
      }
    }
    return cli;
  }

  // Strict variant for single-purpose harnesses: unknown flags are an error.
  static BenchCli parse_or_exit(int argc, char** argv) {
    BenchCli cli = parse(argc, argv);
    if (cli.forwarded.size() > 1) {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: %s [--seed=N] [--metrics-json=PATH]\n",
                   cli.forwarded[1], argc > 0 ? argv[0] : "bench");
      std::exit(2);
    }
    return cli;
  }

  // Call once at the end of main(): exports the process-wide metrics
  // snapshot if --metrics-json was requested.
  void finish() const {
    if (metrics_json.empty()) return;
    std::ofstream out(metrics_json);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", metrics_json.c_str());
      return;
    }
    out << obs::MetricsRegistry::global().snapshot().to_json();
    std::printf("wrote metrics snapshot to %s\n", metrics_json.c_str());
  }
};

struct Workload {
  flow::Trace trace;
  flow::GroundTruth truth;
  std::uint64_t hh_threshold;

  explicit Workload(flow::Trace t)
      : trace(std::move(t)), truth(trace),
        hh_threshold(metrics::heavy_hitter_threshold(truth)) {}
};

// The synthetic CAIDA-like trace, or the capture FCM_TRACE names. A capture
// is decoded like pcap_demo's: flow key FiveTuple::source_key(), bytes the
// original wire length; its decode ledger is printed, and a capture that
// cannot be decoded ends the bench with exit status 1.
inline Workload caida_workload(double scale, std::uint64_t seed = 1) {
  // getenv is read-only here and nothing in the tree calls setenv, so the
  // data race concurrency-mt-unsafe guards against cannot occur.
  const char* path = std::getenv("FCM_TRACE");  // NOLINT(concurrency-mt-unsafe)
  if (path == nullptr || *path == '\0') {
    return Workload(flow::SyntheticTraceGenerator::caida_like(scale, seed));
  }
  datapath::DecodedCapture capture;
  try {
    capture = datapath::load_capture(path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench: cannot decode FCM_TRACE %s: %s\n", path,
                 error.what());
    std::exit(1);
  }
  std::printf("capture %s: records %llu, parsed %llu, parse failures %llu\n",
              path,
              static_cast<unsigned long long>(capture.stats.capture.records),
              static_cast<unsigned long long>(capture.stats.parsed),
              static_cast<unsigned long long>(capture.stats.parse_failures()));
  return Workload(std::move(capture.trace));
}

inline Workload zipf_workload(double alpha, double scale, std::uint64_t seed = 1) {
  return Workload(flow::SyntheticTraceGenerator::zipf(alpha, scale, seed));
}

// Memory scaled with the trace so sketches run at the paper's load factor.
inline std::size_t scaled_memory(std::size_t paper_bytes, double scale) {
  return static_cast<std::size_t>(static_cast<double>(paper_bytes) * scale);
}

inline core::FcmConfig fcm_config(std::size_t memory, std::size_t k,
                                  std::size_t trees = 2,
                                  std::uint64_t seed = 0x5555aaaa) {
  return core::FcmConfig::for_memory(memory, trees, k, {8, 16, 32}, seed);
}

// Fixed-size tables (TopK filters, Elastic heavy parts, UnivMon heaps) keep
// the paper's entries-per-byte ratio when the whole experiment is scaled
// down, so every structure runs at the published load factor.
inline std::size_t scaled_entries(std::size_t paper_entries,
                                  std::size_t paper_memory, std::size_t memory) {
  const auto entries = static_cast<std::size_t>(
      static_cast<double>(paper_entries) * static_cast<double>(memory) /
      static_cast<double>(paper_memory));
  return std::max<std::size_t>(64, entries);
}

// The paper's FCM+TopK: 4K filter entries per 1.5 MB.
inline std::size_t auto_topk_entries(std::size_t memory) {
  return scaled_entries(4096, 1'500'000, memory);
}

inline core::FcmTopK::Config fcm_topk_config(std::size_t memory, std::size_t k,
                                             std::size_t topk_entries = 0,
                                             std::size_t trees = 2,
                                             std::uint64_t seed = 0x5555aaaa) {
  core::FcmTopK::Config config;
  config.topk_entries =
      topk_entries > 0 ? topk_entries : auto_topk_entries(memory);
  config.fcm = core::FcmConfig::for_memory(memory - config.topk_entries * 8,
                                           trees, k, {8, 16, 32}, seed);
  return config;
}

inline void print_preamble(const char* name, const Workload& workload,
                           std::size_t memory) {
  std::printf("%s\n", name);
  std::printf("workload: %zu packets, %zu flows, HH threshold %llu, memory %zu bytes\n\n",
              workload.trace.size(), workload.truth.flow_count(),
              static_cast<unsigned long long>(workload.hh_threshold), memory);
}

}  // namespace fcm::bench
