// ElasticSketch [Yang et al., SIGCOMM 2018], P4-version configuration (the
// variant the paper compares against, §7.1): a multi-level heavy part of
// vote-eviction key-value tables in front of a light part of 8-bit counters.
//
// Packets try each heavy level in pipeline order; a packet that owns no slot
// casts a negative vote and falls through; evicted incumbents are flushed
// into the light part with 8-bit saturation — the accuracy loss mechanism
// the paper analyses in §6 and Figure 14.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "sketch/frequency_estimator.h"
#include "sketch/topk_filter.h"

namespace fcm::sketch {

class ElasticSketch : public FrequencyEstimator {
 public:
  struct Config {
    std::size_t heavy_levels = 4;           // §7.2: 4 levels
    std::size_t entries_per_level = 8192;   // §7.2: 8K entries each
    std::uint32_t eviction_lambda = 8;
    std::size_t light_counters = 1 << 20;   // 8-bit cells
    std::uint64_t seed = 0xe1a5;
  };

  explicit ElasticSketch(Config config);

  // The paper's configuration: fixed heavy part, remaining memory as 8-bit
  // light counters.
  static ElasticSketch for_memory(std::size_t memory_bytes,
                                  std::uint64_t seed = 0xe1a5);

  void update(flow::FlowKey key) override;
  std::uint64_t query(flow::FlowKey key) const override;
  std::size_t memory_bytes() const override;
  std::string name() const override { return "Elastic"; }
  void clear() override;

  // --- control-plane accessors ---
  // Aggregated heavy-part flows (summed across levels).
  std::unordered_map<flow::FlowKey, std::uint64_t> heavy_flows() const;
  // The light-part counter array (8-bit values, saturating at 255), for
  // MRAC-style flow-size-distribution recovery.
  const std::vector<std::uint8_t>& light_counters() const noexcept { return light_; }
  std::uint64_t light_query(flow::FlowKey key) const;

 private:
  void light_add(flow::FlowKey key, std::uint64_t count);

  Config config_;
  std::vector<TopKFilter> heavy_;
  common::SeededHash light_hash_;
  std::vector<std::uint8_t> light_;
};

}  // namespace fcm::sketch
