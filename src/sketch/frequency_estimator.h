// Common interface for per-flow frequency estimators.
//
// Every sketch in this repository (FCM and all baselines) implements this so
// the evaluation harness (src/metrics) can drive them uniformly.
#pragma once

#include <cstdint>
#include <string>

#include "flow/flow_key.h"

namespace fcm::sketch {

class FrequencyEstimator {
 public:
  virtual ~FrequencyEstimator() = default;

  // Process one packet of flow `key`.
  virtual void update(flow::FlowKey key) = 0;

  // Estimated number of packets seen for `key`.
  virtual std::uint64_t query(flow::FlowKey key) const = 0;

  // Logical memory footprint in bytes (what the paper's memory axis means).
  virtual std::size_t memory_bytes() const = 0;

  // Short human-readable name for tables ("CM", "FCM", ...).
  virtual std::string name() const = 0;

  // Reset to the empty state.
  virtual void clear() = 0;
};

}  // namespace fcm::sketch
