#include "sketch/cardinality.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/bitutil.h"

namespace fcm::sketch {

HyperLogLog::HyperLogLog(std::size_t register_count, std::uint64_t seed)
    : hash_(common::make_hash(seed, 0)) {
  if (register_count < 16 || !common::is_power_of_two(register_count)) {
    throw std::invalid_argument("HyperLogLog: register count must be a power of two >= 16");
  }
  index_bits_ = static_cast<unsigned>(std::countr_zero(register_count));
  registers_.assign(register_count, 0);
}

HyperLogLog HyperLogLog::for_memory(std::size_t memory_bytes, std::uint64_t seed) {
  return HyperLogLog(common::round_down_pow2(memory_bytes), seed);
}

void HyperLogLog::update(flow::FlowKey key) {
  // Two independent 32-bit hashes give a 64-bit value: plenty of rank bits.
  const std::uint64_t h =
      (static_cast<std::uint64_t>(hash_(key)) << 32) |
      common::bob_hash_value(key, hash_.seed() ^ kAuxSeedXor);
  const std::size_t index = h >> (64 - index_bits_);
  const std::uint64_t rest = h << index_bits_;
  const auto rank = static_cast<std::uint8_t>(
      rest == 0 ? 64 - index_bits_ + 1 : std::countl_zero(rest) + 1);
  registers_[index] = std::max(registers_[index], rank);
}

double HyperLogLog::estimate() const {
  const double m = static_cast<double>(registers_.size());
  const double alpha =
      registers_.size() <= 16 ? 0.673
      : registers_.size() <= 32 ? 0.697
      : registers_.size() <= 64 ? 0.709
                                : 0.7213 / (1.0 + 1.079 / m);
  double harmonic = 0.0;
  std::size_t zero_registers = 0;
  for (const std::uint8_t r : registers_) {
    harmonic += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zero_registers;
  }
  double estimate = alpha * m * m / harmonic;

  if (estimate <= 2.5 * m && zero_registers > 0) {
    // Small-range correction: linear counting on empty registers.
    estimate = m * std::log(m / static_cast<double>(zero_registers));
  } else if (estimate > (1.0 / 30.0) * 4294967296.0) {
    // Large-range correction for 32-bit key space.
    estimate = -4294967296.0 * std::log(1.0 - estimate / 4294967296.0);
  }
  return estimate;
}

void HyperLogLog::clear() {
  std::fill(registers_.begin(), registers_.end(), std::uint8_t{0});
}

}  // namespace fcm::sketch
