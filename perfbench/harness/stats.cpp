#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile q among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

bool tail_supported(std::size_t count, double q) {
  return count > 0 && count - nearest_rank(count, q) >= kTailSamples;
}

Distribution summarize(const std::vector<double>& samples) {
  Distribution out;
  out.count = samples.size();
  if (samples.empty()) return out;
  out.p50 = percentile(samples, 0.50);
  if (tail_supported(out.count, 0.90)) out.p90 = percentile(samples, 0.90);
  if (tail_supported(out.count, 0.99)) out.p99 = percentile(samples, 0.99);
  return out;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double trimmed_mean(std::vector<double> samples, double trim) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto drop = static_cast<std::size_t>(trim * static_cast<double>(samples.size()));
  const std::size_t kept = samples.size() - 2 * std::min(drop, (samples.size() - 1) / 2);
  const std::size_t first = (samples.size() - kept) / 2;
  return mean(std::vector<double>(samples.begin() + first,
                                  samples.begin() + first + kept));
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), state_(seed | 1) {
  samples_.reserve(capacity);
}

void Reservoir::add(double value) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    return;
  }
  // xorshift64*: cheap enough for a per-sample hot loop.
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  const std::uint64_t slot = (state_ * 0x2545f4914f6cdd1dull) % seen_;
  if (slot < capacity_) samples_[slot] = value;
}

void FailureLedger::record(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

double FailureLedger::ratio() const noexcept {
  if (attempted_ == 0) return 0.0;
  return static_cast<double>(failed_) / static_cast<double>(attempted_);
}

}  // namespace perfbench
