#include "controlplane/virtual_counter.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/contracts.h"

namespace fcm::control {

std::uint64_t VirtualCounterArray::total_value() const noexcept {
  std::uint64_t total = 0;
  for (const auto& vc : counters) total += vc.value;
  return total;
}

std::size_t VirtualCounterArray::nonempty_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(counters.begin(), counters.end(),
                    [](const VirtualCounter& vc) { return vc.value > 0; }));
}

std::uint32_t VirtualCounterArray::max_degree() const noexcept {
  std::uint32_t d = 0;
  for (const auto& vc : counters) {
    if (vc.value > 0) d = std::max(d, vc.degree);
  }
  return d;
}

std::vector<std::size_t> VirtualCounterArray::degree_histogram() const {
  std::vector<std::size_t> histogram(max_degree() + 1, 0);
  for (const auto& vc : counters) {
    if (vc.value > 0) ++histogram[vc.degree];
  }
  return histogram;
}

void VirtualCounterArray::check_invariants() const {
  FCM_ASSERT(leaf_count > 0, "VirtualCounterArray: leaf_count == 0");
  std::uint64_t degree_sum = 0;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    FCM_ASSERT(counters[i].degree >= 1,
               "VirtualCounterArray: counter " + std::to_string(i) +
                   " has degree 0 (every virtual counter merges >= 1 leaf)");
    degree_sum += counters[i].degree;
  }
  FCM_ASSERT(degree_sum == leaf_count,
             "VirtualCounterArray: degrees sum to " + std::to_string(degree_sum) +
                 " but the tree has " + std::to_string(leaf_count) +
                 " leaves (paths must partition the leaf stage)");
}

VirtualCounterArray convert_tree(const core::FcmTree& tree) {
  const auto& config = tree.config();
  const std::size_t levels = config.stage_count();

  // Nodes are numbered stage by stage from the leaves; stage s starts at
  // offset[s - 1]. A node's terminal ends the path through it: the node
  // itself, or its parent's terminal if it overflowed (a root always ends
  // its path). Filled from the roots down.
  std::vector<std::size_t> offset(levels + 1, 0);
  for (std::size_t stage = 1; stage <= levels; ++stage) {
    offset[stage] = offset[stage - 1] + config.width(stage);
  }
  std::vector<std::size_t> terminal(offset[levels]);
  for (std::size_t stage = levels; stage >= 1; --stage) {
    for (std::size_t index = 0; index < config.width(stage); ++index) {
      const std::size_t node = offset[stage - 1] + index;
      terminal[node] = stage < levels && tree.node_overflowed(stage, index)
                           ? terminal[offset[stage] + index / config.k]
                           : node;
    }
  }

  VirtualCounterArray array;
  array.leaf_count = config.leaf_count;
  array.leaf_counting_max = config.counting_max(1);

  // Step 1: one virtual counter per distinct terminal, in first-leaf order;
  // degree = merged leaves.
  constexpr std::size_t kNoCounter = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> counter_of(terminal.size(), kNoCounter);
  for (std::size_t leaf = 0; leaf < config.leaf_count; ++leaf) {
    std::size_t& slot = counter_of[terminal[leaf]];
    if (slot == kNoCounter) {
      slot = array.counters.size();
      array.counters.push_back(VirtualCounter{0, 0});
    }
    array.counters[slot].degree += 1;
  }

  // Step 2: every node's capped count is credited to its terminal's counter
  // exactly once. Nodes whose terminal has no leaf path carry value 0 (a
  // non-leaf node only receives counts via child overflow), so skipping them
  // loses nothing.
  for (std::size_t stage = 1; stage <= levels; ++stage) {
    const std::size_t width = config.width(stage);
    for (std::size_t index = 0; index < width; ++index) {
      const std::uint64_t count = tree.node_count(stage, index);
      if (count == 0) continue;
      const std::size_t slot = counter_of[terminal[offset[stage - 1] + index]];
      if (slot != kNoCounter) array.counters[slot].value += count;
    }
  }
  // §4.1 round-trip guarantee: the conversion preserves the tree's total
  // count exactly, and the merged paths partition the leaf stage.
  FCM_ENSURE(array.total_value() == tree.total_count(),
             "convert_tree: virtual counters lost mass (" +
                 std::to_string(array.total_value()) + " vs tree total " +
                 std::to_string(tree.total_count()) + ")");
  FCM_CHECKED_ONLY(array.check_invariants());
  FCM_CHECKED_ONLY(tree.check_invariants());
  return array;
}

std::vector<VirtualCounterArray> convert_sketch(const core::FcmSketch& sketch) {
  std::vector<VirtualCounterArray> arrays;
  arrays.reserve(sketch.tree_count());
  for (std::size_t t = 0; t < sketch.tree_count(); ++t) {
    arrays.push_back(convert_tree(sketch.tree(t)));
  }
  return arrays;
}

namespace {

template <typename T>
VirtualCounterArray from_counters_impl(std::span<const T> counters) {
  VirtualCounterArray array;
  array.leaf_count = counters.size();
  array.leaf_counting_max = 0;  // plain counters have no overflow semantics
  array.counters.reserve(counters.size());
  for (const T v : counters) {
    array.counters.push_back(VirtualCounter{static_cast<std::uint64_t>(v), 1});
  }
  return array;
}

}  // namespace

VirtualCounterArray from_plain_counters(std::span<const std::uint32_t> counters) {
  return from_counters_impl(counters);
}

VirtualCounterArray from_plain_counters_u8(std::span<const std::uint8_t> counters) {
  return from_counters_impl(counters);
}

}  // namespace fcm::control
