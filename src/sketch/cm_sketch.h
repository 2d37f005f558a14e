// Count-Min sketch [Cormode & Muthukrishnan 2005], the paper's primary
// baseline: d arrays of 32-bit counters, increment-all / min-query.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "sketch/frequency_estimator.h"

namespace fcm::sketch {

class CmSketch : public FrequencyEstimator {
 public:
  // `depth` arrays of `width` 32-bit counters. The paper's setup (§7.2)
  // uses depth = 3.
  CmSketch(std::size_t depth, std::size_t width, std::uint64_t seed = 0xc0117);

  // Builds the paper's configuration for a memory budget.
  static CmSketch for_memory(std::size_t memory_bytes, std::size_t depth = 3,
                             std::uint64_t seed = 0xc0117);

  void update(flow::FlowKey key) override { add(key, 1); }
  void add(flow::FlowKey key, std::uint64_t count);

  std::uint64_t query(flow::FlowKey key) const override;

  std::size_t memory_bytes() const override;
  std::string name() const override { return "CM"; }
  void clear() override;

  std::size_t depth() const noexcept { return rows_.size(); }
  std::size_t width() const noexcept { return width_; }

  // Deep invariants: row geometry (depth >= 1, every row exactly `width()`
  // counters, one hash per row).
  void check_invariants() const;

 protected:
  std::size_t row_index(std::size_t row, flow::FlowKey key) const noexcept {
    return hashes_[row].index(key, width_);
  }
  std::vector<std::vector<std::uint32_t>>& rows() noexcept { return rows_; }
  const std::vector<std::vector<std::uint32_t>>& rows() const noexcept { return rows_; }

 private:
  std::size_t width_;
  std::vector<common::SeededHash> hashes_;
  std::vector<std::vector<std::uint32_t>> rows_;
};

// Count-Min with conservative update [Estan & Varghese 2003]: only counters
// equal to the current minimum are incremented, so the min-query is
// unchanged for other flows. Strictly more accurate than CM, still
// overestimating.
class CuSketch : public CmSketch {
 public:
  using CmSketch::CmSketch;

  static CuSketch for_memory(std::size_t memory_bytes, std::size_t depth = 3,
                             std::uint64_t seed = 0xc0117);

  void update(flow::FlowKey key) override;

  std::string name() const override { return "CU"; }
};

}  // namespace fcm::sketch
