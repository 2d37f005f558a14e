// The benchmark's workloads. Each fills `result` with its end-to-end metrics,
// its correctness gates and, in a traced run, every per-layer metric.
#pragma once

#include "support.h"

namespace perfbench {

// ShardedFcmFramework, 2 shards, hash fanout, packet mode, cache off: a
// dispersed Zipf-1.1 key pool replayed through ingest(span<FlowKey>).
void run_dispersed_keys(const RunOptions& options, Result& result);

// load_capture() of a generated pcap, then byte-mode ingest(span<Packet>)
// into a 2-shard runtime with the heavy-flow cache on.
void run_capture_bytes(const RunOptions& options, Result& result);

// Four serial vantage points shipping wire snapshots to an
// AggregationService that merges, analyses and publishes each epoch, while
// a reader queries the published views.
void run_network_epochs(const RunOptions& options, Result& result);

}  // namespace perfbench
