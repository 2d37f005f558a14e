// Expectation-Maximization recovery of the flow-size distribution from
// virtual counters (paper §4.2–§4.3 and Appendix A).
//
// Virtual counters are grouped by (tree, degree, value); one posterior is
// computed per distinct group and weighted by multiplicity. The combination
// set Ω is truncated with the paper's heuristic: only combinations with few
// flows are enumerated (collisions of many flows are rare), and counters
// whose residual value exceeds a cap fall back to a minimal-flow split. The
// truncation limits are fixed constants in em.cpp, so Ω depends only on a
// group's (degree, value) and its tree's leaf overflow threshold.
// Multi-tree sketches average the per-tree expected counts (Eqn. 5).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "controlplane/fsd.h"
#include "controlplane/virtual_counter.h"
#include "obs/metrics_registry.h"

namespace fcm::core {
class FcmTopK;
}

namespace fcm::control {

struct EmConfig {
  std::size_t max_iterations = 10;

  // Telemetry sink for run() (iteration count/latency, convergence delta).
  // Defaults to the process-global registry; nullptr runs the estimator
  // fully uninstrumented. FcmFramework::analyze() overwrites this with its
  // own Options::metrics so one knob controls the whole pipeline.
  obs::MetricsRegistry* metrics = &obs::MetricsRegistry::global();

  // Worker threads for the per-iteration scan (Fig. 9a's FCM(m) mode). The
  // FSD's low bits depend on it: each thread sums its strided share of the
  // groups into its own partial, and the partials are added in thread order,
  // so 1 and 4 threads give different golden checksums.
  std::size_t thread_count = 1;
};

class EmFsdEstimator {
 public:
  // `arrays` is one VirtualCounterArray per tree (§4.1); a single-array
  // input covers MRAC and other plain-counter sketches.
  EmFsdEstimator(std::vector<VirtualCounterArray> arrays, EmConfig config = {});

  // Called after every iteration with (iteration index, seconds spent in
  // that iteration, current estimate).
  using IterationCallback =
      std::function<void(std::size_t, double, const FlowSizeDistribution&)>;

  // Runs max_iterations EM steps (from the §4.3 initialization) and returns
  // the final estimate.
  FlowSizeDistribution run(const IterationCallback& callback = nullptr);

  // Single EM step, for callers that manage their own schedule.
  void iterate();

  const FlowSizeDistribution& current() const noexcept { return current_; }

  // Deep invariants of the EM state:
  //   - every group references a valid array, with degree >= 1, value >= 1,
  //     and positive multiplicity;
  //   - the current estimate is finite and non-negative everywhere;
  //   - mass conservation: sum_j j * n_j equals the per-tree average of the
  //     virtual-counter mass (each EM step redistributes, never creates,
  //     packet mass), up to floating-point tolerance.
  void check_invariants() const;

 private:
  // One distinct (degree, value) cell of one tree's histogram.
  struct Group {
    std::uint32_t degree;
    std::uint64_t value;
    double multiplicity;
    std::size_t array;  // which tree
  };

  void initialize();
  // Expected flow-size contributions of `group`, accumulated into `out`
  // (scaled by the group's multiplicity).
  void accumulate_group(const Group& group, std::vector<double>& out) const;
  void split_fallback(const Group& group, std::vector<double>& out) const;

  double lambda(std::size_t size, std::uint32_t degree, std::size_t array) const;

  EmConfig config_;
  std::vector<VirtualCounterArray> arrays_;
  std::vector<Group> groups_;
  std::uint64_t max_value_ = 0;
  FlowSizeDistribution current_;
};

// FCM+TopK's control-plane estimate (§6): EM over the virtual counters of
// the sketch part, plus one flow per filter-resident entry at its query()
// size (the filter pins heavy flows with exact counts).
FlowSizeDistribution topk_fsd(const core::FcmTopK& topk, const EmConfig& config);

}  // namespace fcm::control
