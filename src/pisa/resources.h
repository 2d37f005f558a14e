// PISA (Tofino-like) resource model used to reproduce the paper's hardware
// evaluation (§8.3, Table 4/5 and Figure 14a).
//
// Resource totals follow the publicly known Tofino-1 per-pipe architecture:
// 12 match-action stages, 4 stateful ALUs and 80 16-KB SRAM blocks per
// stage. Per-algorithm usage is computed structurally (one register array
// per counter stage, one hash unit per independent hash function, ...);
// formulas are calibrated against the utilization percentages published in
// the paper's Table 4 and documented inline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fcm/fcm_config.h"

namespace fcm::pisa {

// Per-pipe budget of the modeled switch.
struct PipelineBudget {
  std::size_t stages = 12;
  std::size_t salus_per_stage = 4;        // 48 total
  std::size_t sram_blocks_per_stage = 80; // 16 KB each, 960 total
  std::size_t sram_block_bytes = 16 * 1024;
  std::size_t hash_bits_total = 4992;     // 8 x 52-bit units per stage group
  std::size_t crossbar_units_total = 1536;
  std::size_t vliw_actions_total = 384;
  std::size_t tcam_blocks_total = 288;

  std::size_t salus_total() const noexcept { return stages * salus_per_stage; }
  std::size_t sram_blocks_total() const noexcept {
    return stages * sram_blocks_per_stage;
  }
};

struct ResourceUsage {
  std::string name;
  std::size_t stages = 0;
  std::size_t salus = 0;
  std::size_t sram_blocks = 0;
  std::size_t hash_bits = 0;
  std::size_t crossbar_units = 0;
  std::size_t vliw_actions = 0;
  std::size_t tcam_entries = 0;

  double salu_percent(const PipelineBudget& b) const;
  double sram_percent(const PipelineBudget& b) const;
  double hash_percent(const PipelineBudget& b) const;
  double crossbar_percent(const PipelineBudget& b) const;
  double vliw_percent(const PipelineBudget& b) const;
};

// FCM-Sketch mapped onto the pipeline: one stage for hashing plus one stage
// per tree level (trees run in parallel), one sALU per (tree, level).
ResourceUsage fcm_usage(const core::FcmConfig& config,
                        const PipelineBudget& budget = {});

// FCM+TopK: FCM plus a single-level TopK filter (key/count/vote register
// arrays and the eviction logic) occupying four additional stages (§8.1).
ResourceUsage fcm_topk_usage(const core::FcmConfig& config,
                             std::size_t topk_entries,
                             const PipelineBudget& budget = {});

// CM(d)+TopK (the paper's ElasticSketch emulation, §8.2.2): d arrays of
// 8-bit registers behind the same single-level TopK filter.
ResourceUsage cm_topk_usage(std::size_t depth, std::size_t counters_per_array,
                            std::size_t topk_entries,
                            const PipelineBudget& budget = {});

// Published utilization of the switch.p4 baseline (paper Table 4) and of
// the related systems in Table 5. These are constants from the paper, not
// modeled (the artifacts are external).
struct PublishedUsage {
  std::string name;
  double sram_percent;
  double crossbar_percent;
  double tcam_percent;
  double salu_percent;
  double hash_percent;
  double vliw_percent;
  std::size_t stages;
};
PublishedUsage switch_p4_published();
// Table 5 rows: {SketchLearn, QPipe, SpreadSketch}.
std::vector<PublishedUsage> related_systems_published();

}  // namespace fcm::pisa
