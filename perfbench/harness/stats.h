// Summary statistics the benchmark reports: percentiles with their sample
// counts, and the failure ledger behind ops_failed_ratio.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

// A tail percentile is reported only when at least this many samples lie
// beyond it, so p90 needs 100 samples and p99 needs 1000.
inline constexpr std::size_t kTailSamples = 10;

// Nearest-rank percentile: the smallest sample with at least q of all samples
// at or below it. q in (0, 1]; 0 for an empty input.
double percentile(std::vector<double> samples, double q);

// True when `count` samples leave at least kTailSamples beyond percentile q.
bool tail_supported(std::size_t count, double q);

struct Distribution {
  std::size_t count = 0;
  double p50 = 0.0;
  std::optional<double> p90;  // set only when tail_supported(count, 0.90)
  std::optional<double> p99;  // set only when tail_supported(count, 0.99)
};

Distribution summarize(const std::vector<double>& samples);

// Arithmetic mean; 0 for an empty input.
double mean(const std::vector<double>& samples);

// Mean of the samples left after dropping floor(trim * n) from each end; 0
// for an empty input. Steadier than the median when a timing has two modes
// whose mix shifts from run to run.
double trimmed_mean(std::vector<double> samples, double trim);

// A uniform random sample of at most `capacity` values out of every value
// added (reservoir sampling), so a long closed loop keeps bounded memory.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed);
  void add(double value);
  const std::vector<double>& samples() const noexcept { return samples_; }
  std::uint64_t seen() const noexcept { return seen_; }

 private:
  std::size_t capacity_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
  std::vector<double> samples_;
};

// Operations attempted and failed, summed over every check of a run.
class FailureLedger {
 public:
  void record(std::uint64_t attempted, std::uint64_t failed);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  // failed / attempted; 0 when nothing was attempted.
  double ratio() const noexcept;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
