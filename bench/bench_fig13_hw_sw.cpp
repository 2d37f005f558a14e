// Figure 13: software implementation vs the Tofino (pipeline-model)
// implementation at 1.3 MB.
//   - FCM-Sketch: the P4 program on the pipeline model must match the
//     software sketch exactly (no accuracy difference, as the paper reports).
//   - FCM+TopK: the hardware variant replaces the software filter's vote
//     *ratio* eviction with an absolute-vote eviction (§8.1's stateful-ALU
//     approximation), giving the small error increase of Figure 13.
#include <iostream>

#include "bench_common.h"
#include "controlplane/em.h"
#include "pisa/fcm_p4.h"
#include "pisa/hardware_topk.h"

using namespace fcm;

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::BenchCli::parse_or_exit(argc, argv);
  const double scale = metrics::bench_scale();
  bench::Workload workload = bench::caida_workload(scale, cli.seed);
  const std::size_t memory = bench::scaled_memory(1'300'000, scale);
  bench::print_preamble("Figure 13: software vs hardware implementation",
                        workload, memory);
  const auto& truth = workload.truth;
  const auto true_fsd = truth.flow_size_distribution();
  control::EmConfig em;
  em.max_iterations = 6;

  // --- FCM: software sketch vs P4 pipeline program -----------------------
  const core::FcmConfig fcm_cfg = bench::fcm_config(memory, 8);
  core::FcmSketch sw_fcm(fcm_cfg);
  pisa::FcmP4Program hw_fcm(fcm_cfg);
  std::size_t divergences = 0;
  for (const flow::Packet& p : workload.trace.packets()) {
    if (sw_fcm.update(p.key) != hw_fcm.update(p.key)) ++divergences;
  }
  const auto sw_err = metrics::size_errors(
      truth.flow_sizes(), [&](flow::FlowKey key) { return sw_fcm.query(key); });
  const auto hw_err = metrics::size_errors(
      truth.flow_sizes(), [&](flow::FlowKey key) { return hw_fcm.query(key); });
  const double sw_wmre =
      control::EmFsdEstimator(control::convert_sketch(sw_fcm), em).run().wmre(true_fsd);

  // --- FCM+TopK: software filter vs hardware (absolute-vote) filter -------
  core::FcmTopK sw_topk(bench::fcm_topk_config(memory, 16));
  pisa::HardwareFcmTopK hw_topk(bench::fcm_topk_config(memory, 16).fcm,
                                bench::auto_topk_entries(memory));
  for (const flow::Packet& p : workload.trace.packets()) {
    sw_topk.update(p.key);
    hw_topk.update(p.key);
  }
  const auto sw_topk_err = metrics::size_errors(
      truth.flow_sizes(), [&](flow::FlowKey key) { return sw_topk.query(key); });
  const auto hw_topk_err = metrics::size_errors(
      truth.flow_sizes(), [&](flow::FlowKey key) { return hw_topk.query(key); });

  const auto sw_topk_fsd = control::topk_fsd(sw_topk, em);
  auto hw_topk_fsd =
      control::EmFsdEstimator(control::convert_sketch(hw_topk.sketch()), em).run();
  for (const auto& entry : hw_topk.filter().entries()) {
    hw_topk_fsd.add_flows(static_cast<std::size_t>(hw_topk.query(entry.key)), 1.0);
  }

  metrics::Table table("fig13_software_vs_tofino",
                       {"metric", "FCM_sw", "FCM_hw", "FCM+TopK_sw", "FCM+TopK_hw"});
  table.add_row({"flow_size_ARE", metrics::Table::fmt(sw_err.are),
                 metrics::Table::fmt(hw_err.are),
                 metrics::Table::fmt(sw_topk_err.are),
                 metrics::Table::fmt(hw_topk_err.are)});
  table.add_row({"flow_size_AAE", metrics::Table::fmt(sw_err.aae),
                 metrics::Table::fmt(hw_err.aae),
                 metrics::Table::fmt(sw_topk_err.aae),
                 metrics::Table::fmt(hw_topk_err.aae)});
  table.add_row({"fsd_WMRE", metrics::Table::fmt(sw_wmre, 4),
                 metrics::Table::fmt(sw_wmre, 4),
                 metrics::Table::fmt(sw_topk_fsd.wmre(true_fsd), 4),
                 metrics::Table::fmt(hw_topk_fsd.wmre(true_fsd), 4)});
  table.print(std::cout);

  std::printf("FCM software/hardware per-update divergences: %zu (must be 0)\n",
              divergences);
  std::puts("expectation: FCM identical in both columns; FCM+TopK hardware\n"
            "slightly worse than software (approximated TopK eviction).");
  cli.finish();
  return 0;
}
