#include "controlplane/em.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/contracts.h"
#include "fcm/fcm_topk.h"
#include "obs/metrics_registry.h"

namespace fcm::control {
namespace {

// Prior mass floor so a size absent from the current estimate can still be
// proposed by a combination (plain zero would lock it out forever).
constexpr double kLambdaSmoothing = 1e-9;

// Ω truncation (paper §4.3: "truncate the set of possible combinations based
// on the counter value and degree"). Combinations are enumerated only when
// the value left after subtracting each path's mandatory minimum is at most
// kValueEnumerationCap; degree-1 counters consider up to 1 + kMaxExtraFlows
// colliding flows; degrees above kMaxEnumerationDegree always take the
// minimal-flow split.
constexpr std::uint64_t kValueEnumerationCap = 300;
constexpr std::size_t kMaxExtraFlows = 2;
constexpr std::uint32_t kMaxEnumerationDegree = 3;

// Enumerates partitions of `n` into exactly `p` non-increasing parts, each
// in [min_part, max_part], invoking `f(parts)` per partition.
template <typename F>
void enumerate_partitions(std::uint64_t n, std::size_t p, std::uint64_t max_part,
                          std::uint64_t min_part, std::vector<std::uint64_t>& parts,
                          const F& f) {
  if (p == 1) {
    if (n >= min_part && n <= max_part) {
      parts.push_back(n);
      f(parts);
      parts.pop_back();
    }
    return;
  }
  if (n < p * min_part) return;
  const std::uint64_t hi = std::min<std::uint64_t>(max_part, n - (p - 1) * min_part);
  // first part must be at least ceil(n/p) to keep the sequence non-increasing.
  const std::uint64_t lo = std::max<std::uint64_t>(min_part, (n + p - 1) / p);
  for (std::uint64_t first = hi; first + 1 > lo; --first) {
    parts.push_back(first);
    enumerate_partitions(n - first, p - 1, first, min_part, parts, f);
    parts.pop_back();
  }
}

// Visits Ω for an enumerable counter of value `v` and `degree` on a tree
// whose leaf paths hold at least `ell` = theta_1 + 1, calling `f(parts)`
// with each combination's flow sizes, non-increasing, built in the one
// scratch buffer `parts`. The visit order is fixed, so two walks agree.
template <typename F>
void visit_omega(std::uint64_t v, std::uint32_t degree, std::uint64_t ell,
                 std::vector<std::uint64_t>& parts, const F& f) {
  if (degree == 1) {
    // Up to 1 + kMaxExtraFlows colliding flows, any sizes >= 1.
    for (std::size_t p = 1; p <= 1 + kMaxExtraFlows; ++p) {
      if (v < p) break;
      enumerate_partitions(v, p, v, 1, parts, f);
    }
    return;
  }
  // Exactly `degree` merged paths, each with mandatory mass >= ell (every
  // merged path overflowed its leaf, §4.3's constraint), plus optionally one
  // small flow `extra` < ell (so it cannot be its own overflowed path)
  // colliding into one of them; extra == 0 means none. It goes last, being
  // smaller than every path's part.
  const std::uint64_t residual = v - degree * ell;
  for (std::uint64_t extra = 0; extra <= std::min(residual, ell - 1); ++extra) {
    enumerate_partitions(v - extra, degree, residual - extra + ell, ell, parts,
                         [&](std::vector<std::uint64_t>& paths) {
                           if (extra == 0) return f(paths);
                           paths.push_back(extra);
                           f(paths);
                           paths.pop_back();
                         });
  }
}

}  // namespace

EmFsdEstimator::EmFsdEstimator(std::vector<VirtualCounterArray> arrays,
                               EmConfig config)
    : config_(config), arrays_(std::move(arrays)) {
  FCM_REQUIRE(!arrays_.empty(), "EmFsdEstimator: no virtual counter arrays");
  FCM_REQUIRE(config_.max_iterations > 0,
              "EmFsdEstimator: max_iterations must be positive");
  FCM_REQUIRE(config_.thread_count <= EmConfig::kMaxThreadCount,
              "EmFsdEstimator: thread_count " +
                  std::to_string(config_.thread_count) + " exceeds " +
                  std::to_string(EmConfig::kMaxThreadCount));
  for (std::size_t a = 0; a < arrays_.size(); ++a) {
    FCM_REQUIRE(arrays_[a].leaf_count > 0,
                "EmFsdEstimator: array " + std::to_string(a) +
                    " has leaf_count == 0 (lambda would divide by zero)");
  }
  // Histogram each tree by (degree, value); deterministic order via std::map.
  for (std::size_t a = 0; a < arrays_.size(); ++a) {
    std::map<std::pair<std::uint32_t, std::uint64_t>, double> histogram;
    for (const VirtualCounter& vc : arrays_[a].counters) {
      if (vc.value == 0) continue;
      FCM_REQUIRE(vc.degree >= 1,
                  "EmFsdEstimator: non-empty virtual counter with degree 0 in "
                  "array " + std::to_string(a));
      histogram[{vc.degree, vc.value}] += 1.0;
      max_value_ = std::max(max_value_, vc.value);
    }
    for (const auto& [key, multiplicity] : histogram) {
      groups_.push_back(Group{key.first, key.second, multiplicity, a});
    }
  }
  initialize();
}

double EmFsdEstimator::lambda(std::size_t size, std::uint32_t degree,
                              std::size_t array) const {
  const double n_j = current_.counts()[size];
  const double w1 = static_cast<double>(arrays_[array].leaf_count);
  return (n_j > 0.0 ? n_j : kLambdaSmoothing) * static_cast<double>(degree) / w1;
}

void EmFsdEstimator::initialize() {
  // §4.3: the initial guess is the observed distribution — each degree-1
  // counter reads as one flow of its value; merged counters read as their
  // minimal-flow split.
  std::vector<double> init(max_value_ + 1, 0.0);
  for (const Group& g : groups_) {
    split_fallback(g, init);
  }
  const double d = static_cast<double>(arrays_.size());
  for (auto& v : init) v /= d;
  current_ = FlowSizeDistribution(std::move(init));
}

void EmFsdEstimator::split_fallback(const Group& group,
                                    std::vector<double>& out) const {
  const std::uint64_t ell = arrays_[group.array].leaf_counting_max + 1;
  if (group.degree <= 1 || group.value <= ell * group.degree) {
    out[group.value] += group.multiplicity;
    return;
  }
  // Minimal-flow reading of a merged counter: degree-1 flows at the path
  // minimum, one flow carrying the remainder.
  const std::uint64_t rest = group.value - (group.degree - 1) * ell;
  out[rest] += group.multiplicity;
  out[ell] += group.multiplicity * static_cast<double>(group.degree - 1);
}

void EmFsdEstimator::accumulate_group(const Group& group,
                                      std::vector<double>& out) const {
  const std::uint64_t v = group.value;
  const std::uint32_t degree = group.degree;
  const std::uint64_t ell = arrays_[group.array].leaf_counting_max + 1;

  // Decide whether this group is enumerable under the truncation heuristic.
  const bool enumerable =
      degree <= kMaxEnumerationDegree &&
      (degree == 1
           ? v <= kValueEnumerationCap
           : v >= static_cast<std::uint64_t>(degree) * ell &&
                 v - degree * ell <= kValueEnumerationCap);
  if (!enumerable) {
    split_fallback(group, out);
    return;
  }

  // A combination's prior weight is prod_s lambda_s^{c_s} / c_s! (the shared
  // exp(-sum lambda) cancels in the per-counter normalization of Eqn. 2).
  // Ω is walked twice over one scratch buffer: once for the normalizer, then
  // again to add each combination's posterior share to its flow sizes.
  const auto weigh = [&](const std::vector<std::uint64_t>& parts) {
    double weight = 1.0;
    std::size_t run = 1;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      weight *= lambda(static_cast<std::size_t>(parts[i]), degree, group.array);
      if (i + 1 < parts.size() && parts[i + 1] == parts[i]) {
        ++run;
        weight /= static_cast<double>(run);
      } else {
        run = 1;
      }
    }
    return weight;
  };

  std::vector<std::uint64_t> parts;
  double total_weight = 0.0;
  visit_omega(v, degree, ell, parts,
              [&](const std::vector<std::uint64_t>& combo) {
                total_weight += weigh(combo);
              });
  if (!(total_weight > 0.0)) {
    split_fallback(group, out);
    return;
  }
  visit_omega(v, degree, ell, parts,
              [&](const std::vector<std::uint64_t>& combo) {
                const double posterior = weigh(combo) / total_weight;
                for (const std::uint64_t size : combo) {
                  out[size] += group.multiplicity * posterior;
                }
              });
}

void EmFsdEstimator::iterate() {
  // Worker t sums every `threads`-th group into partial[t]; worker 0 is the
  // calling thread, so one thread spawns nothing. The partials are added to
  // partial[0] in worker order.
  const std::size_t threads = std::clamp<std::size_t>(
      config_.thread_count, 1, std::max<std::size_t>(groups_.size(), 1));
  std::vector<std::vector<double>> partial(threads);
  const auto scan = [&](std::size_t t) {
    partial[t].assign(max_value_ + 1, 0.0);
    for (std::size_t g = t; g < groups_.size(); g += threads) {
      accumulate_group(groups_[g], partial[t]);
    }
  };
  {
    // jthread: joins on destruction, so an exception while spawning (or in
    // worker 0's scan) cannot reach ~thread() on a joinable thread.
    std::vector<std::jthread> workers;
    workers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(scan, t);
    scan(0);
  }
  std::vector<double>& next = partial[0];
  for (std::size_t t = 1; t < threads; ++t) {
    for (std::size_t j = 0; j <= max_value_; ++j) next[j] += partial[t][j];
  }
  const double d = static_cast<double>(arrays_.size());
  for (auto& value : next) value /= d;
  current_ = FlowSizeDistribution(std::move(next));
  FCM_CHECKED_ONLY(check_invariants());
}

void EmFsdEstimator::check_invariants() const {
  for (const Group& group : groups_) {
    FCM_ASSERT(group.array < arrays_.size(),
               "EmFsdEstimator: group references an unknown array");
    FCM_ASSERT(group.degree >= 1 && group.value >= 1 && group.multiplicity > 0,
               "EmFsdEstimator: degenerate (degree, value, multiplicity) group");
  }
  double mass = 0.0;
  const auto& counts = current_.counts();
  for (std::size_t j = 0; j < counts.size(); ++j) {
    FCM_ASSERT(std::isfinite(counts[j]) && counts[j] >= 0.0,
               "EmFsdEstimator: estimate has a negative or non-finite entry at "
               "size " + std::to_string(j));
    mass += static_cast<double>(j) * counts[j];
  }
  // Mass conservation: each EM step redistributes the observed counter mass
  // across flow sizes; it never creates or destroys packets (Eqn. 2/5).
  double observed = 0.0;
  for (const Group& group : groups_) {
    observed += group.multiplicity * static_cast<double>(group.value);
  }
  observed /= static_cast<double>(arrays_.size());
  const double tolerance = 1e-6 * std::max(1.0, observed);
  FCM_ASSERT(std::abs(mass - observed) <= tolerance,
             "EmFsdEstimator: EM step changed total packet mass (" +
                 std::to_string(mass) + " vs observed " +
                 std::to_string(observed) + ")");
}

FlowSizeDistribution EmFsdEstimator::run(const IterationCallback& callback) {
  // Control-plane telemetry (DESIGN.md §8): iteration count/latency plus a
  // convergence signal — the L1 distance between successive estimates,
  // normalized by total flows, which EM drives toward zero. EM runs off the
  // ingest path, so registry writes here are free relative to the E-step.
  // config_.metrics == nullptr runs fully uninstrumented (the throughput
  // bench's overhead baseline; threaded down from FcmFramework::analyze()).
  obs::MetricsRegistry* registry = config_.metrics;
  obs::Counter* em_runs =
      registry ? &registry->counter("fcm_em_runs_total", {},
                                    "EM estimator runs completed")
               : nullptr;
  obs::Counter* em_iterations =
      registry ? &registry->counter("fcm_em_iterations_total", {},
                                    "EM iterations across all runs")
               : nullptr;
  obs::Histogram* em_iteration_seconds =
      registry ? &registry->histogram("fcm_em_iteration_seconds",
                                      obs::Histogram::latency_bounds(), {},
                                      "Wall time per EM iteration")
               : nullptr;
  obs::Gauge* em_delta =
      registry
          ? &registry->gauge("fcm_em_convergence_delta", {},
                             "Normalized L1 change of the FSD estimate in the "
                             "last EM iteration")
          : nullptr;

  // Only the convergence gauge reads the L1 change, so the previous
  // estimate is copied (and the change summed) only when the gauge exists.
  double last_delta = 0.0;
  std::vector<double> previous;
  for (std::size_t i = 0; i < config_.max_iterations; ++i) {
    const auto start = std::chrono::steady_clock::now();
    if (em_delta != nullptr) previous = current_.counts();
    iterate();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (em_iterations != nullptr) em_iterations->inc();
    if (em_iteration_seconds != nullptr) em_iteration_seconds->observe(seconds);
    if (em_delta != nullptr) {
      const auto& counts = current_.counts();
      double l1 = 0.0;
      for (std::size_t j = 0; j < counts.size(); ++j) {
        l1 += std::abs(counts[j] - previous[j]);
      }
      const double total = current_.total_flows();
      last_delta = total > 0.0 ? l1 / total : l1;
    }
    if (callback) callback(i, seconds, current_);
  }
  if (em_delta != nullptr) em_delta->set(last_delta);
  if (em_runs != nullptr) em_runs->inc();
  return current_;
}

FlowSizeDistribution topk_fsd(const core::FcmTopK& topk, const EmConfig& config) {
  FlowSizeDistribution fsd =
      EmFsdEstimator(convert_sketch(topk.sketch()), config).run();
  for (const auto& [key, count] : topk.topk_flows()) {
    fsd.add_flows(static_cast<std::size_t>(topk.query(key)), 1.0);
  }
  return fsd;
}

}  // namespace fcm::control
