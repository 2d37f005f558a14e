// Figures 10 and 11: sensitivity of the k parameter to traffic skewness.
// Synthetic Zipf(alpha) traces, alpha in {1.1, 1.3, 1.5, 1.7}; k in
// {4, 8, 16, 32}. Flow-size ARE/AAE are normalized to CM-Sketch (Fig. 10)
// and flow-size-distribution WMRE to MRAC (Fig. 11).
#include <iostream>

#include "bench_common.h"
#include "controlplane/em.h"
#include "sketch/cm_sketch.h"
#include "sketch/fss_sketch.h"
#include "sketch/mrac.h"

using namespace fcm;

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::BenchCli::parse_or_exit(argc, argv);
  const double scale = metrics::bench_scale();
  const std::size_t memory = bench::scaled_memory(1'500'000, scale);
  std::printf("Figures 10/11: k vs traffic skewness (memory %zu bytes)\n\n", memory);

  const std::vector<std::size_t> ks{4, 8, 16, 32};
  std::vector<std::string> columns{"alpha", "CM/MRAC"};
  for (const std::size_t k : ks) columns.push_back("FCM" + std::to_string(k));
  for (const std::size_t k : ks) columns.push_back("FCM" + std::to_string(k) + "+TopK");
  columns.push_back("FSS");  // Filtered Space-Saving baseline (ARE/AAE only)

  metrics::Table are_table("fig10a_normalized_are", columns);
  metrics::Table aae_table("fig10b_normalized_aae", columns);
  metrics::Table wmre_table("fig11_normalized_wmre", columns);

  control::EmConfig em;
  em.max_iterations = 6;

  for (const double alpha : {1.1, 1.3, 1.5, 1.7}) {
    bench::Workload workload = bench::zipf_workload(alpha, scale, cli.seed);
    const auto& truth = workload.truth;
    const auto true_fsd = truth.flow_size_distribution();

    sketch::CmSketch cm = sketch::CmSketch::for_memory(memory, 3);
    sketch::Mrac mrac = sketch::Mrac::for_memory(memory);
    sketch::FssSketch fss = sketch::FssSketch::for_memory(memory);
    for (const flow::Packet& p : workload.trace.packets()) {
      cm.update(p.key);
      mrac.update(p.key);
      fss.update(p.key);
    }
    const auto cm_err = metrics::evaluate_sizes(cm, truth);
    const double mrac_wmre =
        control::EmFsdEstimator({control::from_plain_counters(mrac.counters())}, em)
            .run()
            .wmre(true_fsd);

    std::vector<std::string> are_row{metrics::Table::fmt(alpha, 1), "1.000"};
    std::vector<std::string> aae_row = are_row;
    std::vector<std::string> wmre_row = are_row;

    const auto add_variant = [&](bool with_topk) {
      for (const std::size_t k : ks) {
        metrics::SizeErrors err;
        double wmre = 0.0;
        if (with_topk) {
          core::FcmTopK topk(bench::fcm_topk_config(memory, k));
          for (const flow::Packet& p : workload.trace.packets()) topk.update(p.key);
          err = metrics::size_errors(
              truth.flow_sizes(), [&](flow::FlowKey key) { return topk.query(key); });
          wmre = control::topk_fsd(topk, em).wmre(true_fsd);
        } else {
          core::FcmSketch fcm(bench::fcm_config(memory, k));
          for (const flow::Packet& p : workload.trace.packets()) fcm.update(p.key);
          err = metrics::size_errors(
              truth.flow_sizes(), [&](flow::FlowKey key) { return fcm.query(key); });
          wmre = control::EmFsdEstimator(control::convert_sketch(fcm), em)
                     .run()
                     .wmre(true_fsd);
        }
        are_row.push_back(metrics::Table::fmt(err.are / cm_err.are, 3));
        aae_row.push_back(metrics::Table::fmt(err.aae / cm_err.aae, 3));
        wmre_row.push_back(metrics::Table::fmt(wmre / mrac_wmre, 3));
      }
    };
    add_variant(false);
    add_variant(true);

    // FSS tracks a bounded monitored list, not an FSD-decodable counter
    // array: ARE/AAE are well-defined (query() never underestimates via the
    // filter bound), WMRE is not — the column stays "-" in fig 11.
    const auto fss_err = metrics::evaluate_sizes(fss, truth);
    are_row.push_back(metrics::Table::fmt(fss_err.are / cm_err.are, 3));
    aae_row.push_back(metrics::Table::fmt(fss_err.aae / cm_err.aae, 3));
    wmre_row.push_back("-");

    are_table.add_row(std::move(are_row));
    aae_table.add_row(std::move(aae_row));
    wmre_table.add_row(std::move(wmre_row));
  }

  are_table.print(std::cout);
  aae_table.print(std::cout);
  wmre_table.print(std::cout);
  std::puts("expectation: FCM entries < 1 (FCM variants beat CM / MRAC);\n"
            "for plain FCM, k=32 degrades at mid skews; FCM+TopK stays flat.\n"
            "FSS is the list-based contrast: strong at high skew (elephants\n"
            "monitored exactly), weak on the mouse-heavy tail at low skew.");
  cli.finish();
  return 0;
}
