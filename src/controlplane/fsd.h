// Flow-size distribution estimates and the metrics defined over them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fcm::control {

// An estimated flow-size distribution: counts[j] = expected number of flows
// of size j (index 0 unused).
class FlowSizeDistribution {
 public:
  FlowSizeDistribution() = default;
  explicit FlowSizeDistribution(std::vector<double> counts)
      : counts_(std::move(counts)) {}

  const std::vector<double>& counts() const noexcept { return counts_; }

  // Total estimated number of flows (n in the paper).
  double total_flows() const noexcept;

  // Total estimated packet mass (sum_j j * n_j).
  double total_packets() const noexcept;

  // Estimated empirical entropy (§4.4):
  //   H = -sum_j n_j * (j/m) * ln(j/m), natural log, m = total packet mass.
  double entropy() const;

  // Adds `count` flows of size `size` (used to fold Top-K exact flows into
  // an EM-recovered distribution).
  void add_flows(std::size_t size, double count);

  // Weighted Mean Relative Error against the exact distribution
  // (§7.2, metric from MRAC):
  //   WMRE = sum_i |n_i - n̂_i| / sum_i (n_i + n̂_i)/2,
  // summed over 1..max(z_true, z_est).
  double wmre(std::span<const std::uint64_t> true_fsd) const;

 private:
  std::vector<double> counts_;
};

}  // namespace fcm::control
