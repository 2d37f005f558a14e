#include "sketch/cm_sketch.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/contracts.h"

namespace fcm::sketch {

CmSketch::CmSketch(std::size_t depth, std::size_t width, std::uint64_t seed)
    : width_(width) {
  FCM_REQUIRE(depth > 0 && width > 0,
              "CmSketch: depth and width must be positive (depth=" +
                  std::to_string(depth) + ", width=" + std::to_string(width) +
                  ")");
  hashes_.reserve(depth);
  rows_.reserve(depth);
  for (std::size_t d = 0; d < depth; ++d) {
    hashes_.push_back(common::make_hash(seed, static_cast<std::uint32_t>(d)));
    rows_.emplace_back(width, 0u);
  }
}

CmSketch CmSketch::for_memory(std::size_t memory_bytes, std::size_t depth,
                              std::uint64_t seed) {
  return CmSketch(depth, memory_bytes / (depth * sizeof(std::uint32_t)), seed);
}

void CmSketch::add(flow::FlowKey key, std::uint64_t count) {
  for (std::size_t d = 0; d < rows_.size(); ++d) {
    auto& counter = rows_[d][row_index(d, key)];
    counter = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        std::uint64_t{counter} + count, std::numeric_limits<std::uint32_t>::max()));
  }
}

std::uint64_t CmSketch::query(flow::FlowKey key) const {
  std::uint64_t result = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t d = 0; d < rows_.size(); ++d) {
    result = std::min<std::uint64_t>(result, rows_[d][row_index(d, key)]);
  }
  return result;
}

std::size_t CmSketch::memory_bytes() const {
  return rows_.size() * width_ * sizeof(std::uint32_t);
}

void CmSketch::check_invariants() const {
  FCM_ASSERT(!rows_.empty(), "CmSketch: zero depth");
  FCM_ASSERT(width_ > 0, "CmSketch: zero width");
  FCM_ASSERT(hashes_.size() == rows_.size(),
             "CmSketch: hash count diverged from row count");
  for (std::size_t d = 0; d < rows_.size(); ++d) {
    FCM_ASSERT(rows_[d].size() == width_,
               "CmSketch: row " + std::to_string(d) +
                   " width diverged from the sketch geometry");
  }
}

void CmSketch::clear() {
  for (auto& row : rows_) std::fill(row.begin(), row.end(), 0u);
}

CuSketch CuSketch::for_memory(std::size_t memory_bytes, std::size_t depth,
                              std::uint64_t seed) {
  return CuSketch(depth, memory_bytes / (depth * sizeof(std::uint32_t)), seed);
}

void CuSketch::update(flow::FlowKey key) {
  const std::uint64_t current = query(key);
  for (std::size_t d = 0; d < rows().size(); ++d) {
    auto& counter = rows()[d][row_index(d, key)];
    if (counter == current && counter < std::numeric_limits<std::uint32_t>::max()) {
      ++counter;
    }
  }
}

}  // namespace fcm::sketch
