// Figure 12: accuracy of five measurement tasks vs memory (0.5–2.5 MB),
// comparing FCM and FCM+TopK against ElasticSketch and UnivMon.
//   12a ARE / 12b AAE of flow size (FCM, FCM+TopK, Elastic)
//   12c heavy-hitter F1 (all four)
//   12d cardinality RE (all four)
//   12e FSD WMRE (FCM, FCM+TopK, Elastic)
//   12f entropy RE (all four)
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "controlplane/em.h"
#include "sketch/elastic_sketch.h"
#include "sketch/univmon.h"

using namespace fcm;

int main(int argc, char** argv) {
  const bench::BenchCli cli = bench::BenchCli::parse_or_exit(argc, argv);
  const double scale = metrics::bench_scale();
  bench::Workload workload = bench::caida_workload(scale, cli.seed);
  bench::print_preamble("Figure 12: five tasks vs memory", workload, 0);
  const auto& truth = workload.truth;
  const auto true_fsd = truth.flow_size_distribution();
  const double true_entropy = truth.entropy();
  const double true_card = static_cast<double>(truth.flow_count());
  const auto true_heavy = truth.heavy_hitters(workload.hh_threshold);

  control::EmConfig em;
  em.max_iterations = 6;

  metrics::Table are_table("fig12a_are", {"MB", "FCM", "FCM+TopK", "Elastic"});
  metrics::Table aae_table("fig12b_aae", {"MB", "FCM", "FCM+TopK", "Elastic"});
  metrics::Table hh_table("fig12c_hh_f1",
                          {"MB", "FCM", "FCM+TopK", "Elastic", "UnivMon"});
  metrics::Table card_table("fig12d_cardinality_re",
                            {"MB", "FCM", "FCM+TopK", "Elastic", "UnivMon"});
  metrics::Table wmre_table("fig12e_fsd_wmre", {"MB", "FCM", "FCM+TopK", "Elastic"});
  metrics::Table entropy_table("fig12f_entropy_re",
                               {"MB", "FCM", "FCM+TopK", "Elastic", "UnivMon"});

  for (const double mb : {0.5, 1.0, 1.5, 2.0, 2.5}) {
    const auto memory =
        bench::scaled_memory(static_cast<std::size_t>(mb * 1'000'000), scale);
    const std::string label = metrics::Table::fmt(mb, 1);

    // --- FCM (8-ary) and FCM+TopK (16-ary), the §7.5 configurations ------
    core::FcmSketch fcm(bench::fcm_config(memory, 8));
    core::FcmTopK topk(bench::fcm_topk_config(memory, 16));
    fcm.set_heavy_hitter_threshold(workload.hh_threshold);
    topk.set_heavy_hitter_threshold(workload.hh_threshold);

    // ElasticSketch (§7.2: 4 levels x 8K entries per 1.5 MB) and UnivMon
    // (16 levels, 2K heaps per 1.5 MB), with the fixed tables scaled to the
    // experiment's load factor.
    sketch::ElasticSketch::Config elastic_config;
    elastic_config.entries_per_level =
        bench::scaled_entries(8192, 1'500'000, memory);
    const std::size_t elastic_heavy_bytes =
        elastic_config.heavy_levels * elastic_config.entries_per_level * 8;
    elastic_config.light_counters =
        memory > elastic_heavy_bytes ? memory - elastic_heavy_bytes : 4096;
    sketch::ElasticSketch elastic(elastic_config);

    sketch::UnivMon::Config univmon_config;
    univmon_config.heap_capacity = bench::scaled_entries(2048, 1'500'000, memory);
    const std::size_t heap_bytes =
        univmon_config.levels * univmon_config.heap_capacity * 12;
    univmon_config.cs_width = std::max<std::size_t>(
        64, (memory > heap_bytes ? memory - heap_bytes : memory / 2) /
                (univmon_config.levels * univmon_config.cs_depth * 4));
    sketch::UnivMon univmon(univmon_config);
    for (const flow::Packet& p : workload.trace.packets()) {
      fcm.update(p.key);
      topk.update(p.key);
      elastic.update(p.key);
      univmon.update(p.key);
    }

    const auto fcm_err = metrics::size_errors(
        truth.flow_sizes(), [&](flow::FlowKey key) { return fcm.query(key); });
    const auto topk_err = metrics::size_errors(
        truth.flow_sizes(), [&](flow::FlowKey key) { return topk.query(key); });
    const auto elastic_err = metrics::evaluate_sizes(elastic, truth);
    are_table.add_row({label, metrics::Table::fmt(fcm_err.are),
                       metrics::Table::fmt(topk_err.are),
                       metrics::Table::fmt(elastic_err.are)});
    aae_table.add_row({label, metrics::Table::fmt(fcm_err.aae),
                       metrics::Table::fmt(topk_err.aae),
                       metrics::Table::fmt(elastic_err.aae)});

    // Heavy hitters.
    const auto fcm_heavy = fcm.heavy_hitters();
    const auto f1 = [&](const std::vector<flow::FlowKey>& reported) {
      return metrics::classification_scores(reported, true_heavy).f1;
    };
    hh_table.add_row(
        {label,
         metrics::Table::fmt(
             f1({fcm_heavy.begin(), fcm_heavy.end()}), 4),
         metrics::Table::fmt(f1(topk.heavy_hitters(workload.hh_threshold)), 4),
         metrics::Table::fmt(
             f1(metrics::heavy_hitters_by_query(elastic, truth, workload.hh_threshold)), 4),
         metrics::Table::fmt(f1(univmon.heavy_hitters(workload.hh_threshold)), 4)});

    // Cardinality. ElasticSketch estimates it from its parts: heavy-part
    // flow count plus linear counting over the light part's empty cells.
    std::size_t light_nonzero = 0;
    for (const auto cell : elastic.light_counters()) {
      if (cell != 0) ++light_nonzero;
    }
    const double w = static_cast<double>(elastic.light_counters().size());
    const double zeros = std::max(0.5, w - static_cast<double>(light_nonzero));
    const double elastic_card =
        -w * std::log(zeros / w) + static_cast<double>(elastic.heavy_flows().size());
    card_table.add_row(
        {label,
         metrics::Table::sci(
             metrics::relative_error(fcm.estimate_cardinality(), true_card)),
         metrics::Table::sci(
             metrics::relative_error(topk.estimate_cardinality(), true_card)),
         metrics::Table::sci(metrics::relative_error(elastic_card, true_card)),
         metrics::Table::sci(
             metrics::relative_error(univmon.estimate_cardinality(), true_card))});

    // FSD + entropy.
    const auto fcm_fsd =
        control::EmFsdEstimator(control::convert_sketch(fcm), em).run();
    const auto topk_fsd = control::topk_fsd(topk, em);
    auto elastic_fsd =
        control::EmFsdEstimator(
            {control::from_plain_counters_u8(elastic.light_counters())}, em)
            .run();
    for (const auto& [key, count] : elastic.heavy_flows()) {
      elastic_fsd.add_flows(static_cast<std::size_t>(elastic.query(key)), 1.0);
    }
    wmre_table.add_row({label, metrics::Table::fmt(fcm_fsd.wmre(true_fsd), 4),
                        metrics::Table::fmt(topk_fsd.wmre(true_fsd), 4),
                        metrics::Table::fmt(elastic_fsd.wmre(true_fsd), 4)});
    entropy_table.add_row(
        {label,
         metrics::Table::sci(metrics::relative_error(fcm_fsd.entropy(), true_entropy)),
         metrics::Table::sci(metrics::relative_error(topk_fsd.entropy(), true_entropy)),
         metrics::Table::sci(
             metrics::relative_error(elastic_fsd.entropy(), true_entropy)),
         metrics::Table::sci(
             metrics::relative_error(univmon.estimate_entropy(), true_entropy))});
  }

  are_table.print(std::cout);
  aae_table.print(std::cout);
  hh_table.print(std::cout);
  card_table.print(std::cout);
  wmre_table.print(std::cout);
  entropy_table.print(std::cout);
  std::puts("expectation: FCM+TopK best overall; FCM beats Elastic on flow\n"
            "size and cardinality; UnivMon trails on every task.");
  cli.finish();
  return 0;
}
