#include "pisa/resources.h"

namespace fcm::pisa {
namespace {

// SRAM blocks for one register array: payload rounded up to 16-KB blocks
// plus one block of map-RAM/overhead per array (the calibration that makes
// the paper's 9.38% at 1.3 MB come out).
std::size_t blocks_for_array(std::size_t bytes, const PipelineBudget& budget) {
  return (bytes + budget.sram_block_bytes - 1) / budget.sram_block_bytes + 1;
}

}  // namespace

double ResourceUsage::salu_percent(const PipelineBudget& b) const {
  return 100.0 * static_cast<double>(salus) / static_cast<double>(b.salus_total());
}
double ResourceUsage::sram_percent(const PipelineBudget& b) const {
  return 100.0 * static_cast<double>(sram_blocks) /
         static_cast<double>(b.sram_blocks_total());
}
double ResourceUsage::hash_percent(const PipelineBudget& b) const {
  return 100.0 * static_cast<double>(hash_bits) /
         static_cast<double>(b.hash_bits_total);
}
double ResourceUsage::crossbar_percent(const PipelineBudget& b) const {
  return 100.0 * static_cast<double>(crossbar_units) /
         static_cast<double>(b.crossbar_units_total);
}
double ResourceUsage::vliw_percent(const PipelineBudget& b) const {
  return 100.0 * static_cast<double>(vliw_actions) /
         static_cast<double>(b.vliw_actions_total);
}

ResourceUsage fcm_usage(const core::FcmConfig& config,
                        const PipelineBudget& budget) {
  ResourceUsage usage;
  usage.name = "FCM-Sketch";
  // One stage computes the per-tree hashes; each tree level occupies one
  // stage (trees are parallel, so levels share stages across trees).
  usage.stages = 1 + config.stage_count();
  usage.salus = config.tree_count * config.stage_count();
  for (std::size_t l = 1; l <= config.stage_count(); ++l) {
    const std::size_t bytes = config.width(l) * config.stage_bits[l - 1] / 8;
    usage.sram_blocks += config.tree_count * blocks_for_array(bytes, budget);
  }
  // One 52-bit hash unit per tree.
  usage.hash_bits = config.tree_count * 52;
  // Crossbar: flow key (4 bytes) into each tree's hash unit plus ~2 bytes of
  // PHV per register access for index/predicate wiring.
  usage.crossbar_units =
      config.tree_count * (8 + 2 * config.stage_count()) + 4;
  // One VLIW action per pipeline stage used, plus one for the final
  // estimate assembly.
  usage.vliw_actions = usage.stages + 1;
  return usage;
}

namespace {

// Single-level TopK filter resources: key, count and vote register arrays
// (3 sALUs) plus the eviction/flag logic (1 sALU), spread over 4 stages.
ResourceUsage topk_overhead(std::size_t entries, const PipelineBudget& budget) {
  ResourceUsage usage;
  usage.stages = 4;
  usage.salus = 4;
  usage.sram_blocks = blocks_for_array(entries * 4, budget) +  // keys
                      blocks_for_array(entries * 4, budget) +  // counts
                      blocks_for_array(entries * 4, budget);   // votes+flag
  usage.hash_bits = 24;  // one index hash into the filter
  usage.crossbar_units = 18;
  usage.vliw_actions = 5;
  return usage;
}

ResourceUsage combine(std::string name, const ResourceUsage& a,
                      const ResourceUsage& b) {
  ResourceUsage usage;
  usage.name = std::move(name);
  usage.stages = a.stages + b.stages;
  usage.salus = a.salus + b.salus;
  usage.sram_blocks = a.sram_blocks + b.sram_blocks;
  usage.hash_bits = a.hash_bits + b.hash_bits;
  usage.crossbar_units = a.crossbar_units + b.crossbar_units;
  usage.vliw_actions = a.vliw_actions + b.vliw_actions;
  usage.tcam_entries = a.tcam_entries + b.tcam_entries;
  return usage;
}

}  // namespace

ResourceUsage fcm_topk_usage(const core::FcmConfig& config,
                             std::size_t topk_entries,
                             const PipelineBudget& budget) {
  return combine("FCM+TopK", fcm_usage(config, budget),
                 topk_overhead(topk_entries, budget));
}

ResourceUsage cm_topk_usage(std::size_t depth, std::size_t counters_per_array,
                            std::size_t topk_entries,
                            const PipelineBudget& budget) {
  ResourceUsage cm;
  cm.name = "CM(" + std::to_string(depth) + ")+TopK";
  cm.stages = 1 + depth;  // hash stage + one stage per 8-bit array
  cm.salus = depth;
  for (std::size_t d = 0; d < depth; ++d) {
    cm.sram_blocks += blocks_for_array(counters_per_array, budget);  // 1 B each
  }
  cm.hash_bits = depth * 26;
  cm.crossbar_units = depth * 6 + 4;
  cm.vliw_actions = cm.stages + 1;
  return combine(cm.name, cm, topk_overhead(topk_entries, budget));
}

PublishedUsage switch_p4_published() {
  // Paper Table 4, switch.p4 column.
  return PublishedUsage{"switch.p4", 30.52, 37.50, 28.12, 22.92, 33.43, 36.98, 12};
}

std::vector<PublishedUsage> related_systems_published() {
  // Paper Table 5 (stages and sALUs are the published figures; other
  // columns were not reported and are set to 0).
  return {
      PublishedUsage{"SketchLearn", 0, 0, 0, 68.75, 0, 0, 9},
      PublishedUsage{"QPipe", 0, 0, 0, 45.83, 0, 0, 12},
      PublishedUsage{"SpreadSketch", 0, 0, 0, 12.50, 0, 0, 6},
  };
}

}  // namespace fcm::pisa
