// Figure 7: control-plane query accuracy vs the k-ary tree parameter.
//   7a flow size distribution WMRE: FCM, FCM+TopK vs MRAC.
//   7b entropy RE: FCM, FCM+TopK vs MRAC.
// All three recover the distribution with the same EM engine.
#include <iostream>

#include "bench_common.h"
#include "controlplane/em.h"
#include "sketch/mrac.h"

using namespace fcm;

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::BenchCli::parse_or_exit(argc, argv);
  const double scale = metrics::bench_scale();
  bench::Workload workload = bench::caida_workload(scale, cli.seed);
  const std::size_t memory = bench::scaled_memory(1'500'000, scale);
  bench::print_preamble("Figure 7: control-plane accuracy vs k", workload, memory);

  const auto true_fsd = workload.truth.flow_size_distribution();
  const double true_entropy = workload.truth.entropy();

  control::EmConfig em;
  em.max_iterations = 8;

  // MRAC baseline (k-independent): one counter array plus the same EM.
  sketch::Mrac mrac = sketch::Mrac::for_memory(memory);
  for (const flow::Packet& p : workload.trace.packets()) mrac.update(p.key);
  const auto mrac_fsd =
      control::EmFsdEstimator({control::from_plain_counters(mrac.counters())}, em)
          .run();
  const double mrac_wmre = mrac_fsd.wmre(true_fsd);
  const double mrac_entropy_re =
      metrics::relative_error(mrac_fsd.entropy(), true_entropy);

  metrics::Table fsd_table("fig7a_fsd_wmre",
                           {"k", "FCM", "FCM+TopK", "MRAC"});
  metrics::Table entropy_table("fig7b_entropy_re",
                               {"k", "FCM", "FCM+TopK", "MRAC"});

  for (const std::size_t k : {2, 4, 8, 16, 32}) {
    core::FcmSketch fcm(bench::fcm_config(memory, k));
    core::FcmTopK topk(bench::fcm_topk_config(memory, k));
    for (const flow::Packet& p : workload.trace.packets()) {
      fcm.update(p.key);
      topk.update(p.key);
    }
    const auto fcm_fsd =
        control::EmFsdEstimator(control::convert_sketch(fcm), em).run();
    const auto topk_dist = control::topk_fsd(topk, em);

    fsd_table.add_row({std::to_string(k),
                       metrics::Table::fmt(fcm_fsd.wmre(true_fsd), 4),
                       metrics::Table::fmt(topk_dist.wmre(true_fsd), 4),
                       metrics::Table::fmt(mrac_wmre, 4)});
    entropy_table.add_row(
        {std::to_string(k),
         metrics::Table::sci(metrics::relative_error(fcm_fsd.entropy(), true_entropy)),
         metrics::Table::sci(metrics::relative_error(topk_dist.entropy(), true_entropy)),
         metrics::Table::sci(mrac_entropy_re)});
  }

  fsd_table.print(std::cout);
  entropy_table.print(std::cout);
  cli.finish();
  return 0;
}
