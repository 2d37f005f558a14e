// Per-layer measurements. A traced run reports every per-layer metric: the
// ones its own path exercises come from spans and epoch reports on that path;
// the rest come from layer probes, which time each layer's public functions
// over one epoch of the same workload's data.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "flow/packet.h"
#include "runtime_phase.h"
#include "support.h"

namespace perfbench {

// Runtime-layer metrics of one traced phase. `packets` is what was ingested.
void report_runtime_layers(const RuntimePhase& phase, const Tracer& tracer,
                           std::uint64_t packets, Result& result,
                           const std::string& source = "path");

// bench.trace_overhead_pct: how much slower the traced run ingested.
void report_trace_overhead(double untraced_mpps, double traced_mpps, Result& result);

struct ProbeInput {
  std::span<const flow::Packet> epoch;     // one epoch of the workload
  std::span<const flow::Packet> previous;  // the epoch before it
  std::string workdir;                     // for the probe capture file
};

// Fills every per-layer metric `result` does not hold yet.
void probe_missing_layers(const ProbeInput& input, Result& result);

}  // namespace perfbench
