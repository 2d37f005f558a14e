// Contract layer tests: documented contract errors for invalid inputs, and
// a check_invariants() sweep over every core type driven by a synthetic
// trace (the CHECKED-build hook exercises the same sweeps from hot paths).
#include "common/contracts.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "controlplane/em.h"
#include "controlplane/virtual_counter.h"
#include "fcm/fcm_sketch.h"
#include "fcm/fcm_topk.h"
#include "flow/synthetic.h"
#include "framework/fcm_framework.h"
#include "pisa/fcm_p4.h"
#include "pisa/hardware_topk.h"
#include "pisa/pipeline.h"
#include "sketch/cm_sketch.h"
#include "sketch/topk_filter.h"

namespace fcm {
namespace {

using common::ContractViolation;

core::FcmConfig small_config(std::uint64_t seed = 0xabc) {
  core::FcmConfig config;
  config.tree_count = 2;
  config.k = 8;
  config.stage_bits = {8, 16, 32};
  config.leaf_count = 8 * 8 * 64;  // 4096 leaves
  config.seed = seed;
  return config;
}

#if FCM_CONTRACT_LEVEL == 1

// --- macro semantics -----------------------------------------------------

TEST(Contracts, ViolationCarriesKindAndLocation) {
  try {
    FCM_REQUIRE(1 == 2, "the message");
    FAIL() << "FCM_REQUIRE did not throw";
  } catch (const ContractViolation& violation) {
    EXPECT_STREQ(violation.kind(), "REQUIRE");
    const std::string what = violation.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos);
  }
}

TEST(Contracts, ViolationIsAnInvalidArgument) {
  // Pre-existing callers catch std::invalid_argument / std::logic_error.
  EXPECT_THROW(FCM_ASSERT(false, "x"), std::invalid_argument);
  EXPECT_THROW(FCM_ENSURE(false, "x"), std::logic_error);
}

TEST(Contracts, PassingConditionsDoNotEvaluateTheMessage) {
  int evaluations = 0;
  const auto message = [&] {
    ++evaluations;
    return std::string("expensive");
  };
  FCM_REQUIRE(true, message());
  EXPECT_EQ(evaluations, 0);
}

TEST(Contracts, CheckedNarrowPreservesOrThrows) {
  EXPECT_EQ(common::checked_narrow<std::uint32_t>(std::uint64_t{7}), 7u);
  EXPECT_EQ(common::checked_narrow<std::uint8_t>(std::uint64_t{255}), 255u);
  EXPECT_THROW(common::checked_narrow<std::uint8_t>(std::uint64_t{256}),
               ContractViolation);
  EXPECT_THROW(common::checked_narrow<std::uint32_t>(std::int64_t{-1}),
               ContractViolation);
}

// --- documented contract errors ------------------------------------------

TEST(Contracts, InvalidFcmGeometriesFail) {
  core::FcmConfig config = small_config();
  config.tree_count = 0;
  EXPECT_THROW(config.validate(), ContractViolation);

  config = small_config();
  config.k = 1;
  EXPECT_THROW(config.validate(), ContractViolation);

  config = small_config();
  config.stage_bits = {8, 16, 16};  // not strictly increasing
  EXPECT_THROW(config.validate(), ContractViolation);

  config = small_config();
  config.stage_bits = {1, 16, 32};  // below 2 bits
  EXPECT_THROW(config.validate(), ContractViolation);

  config = small_config();
  config.leaf_count = 100;  // not a multiple of k^(L-1) = 64
  EXPECT_THROW(config.validate(), ContractViolation);

  EXPECT_THROW(core::FcmConfig::for_memory(1, 2, 8, {8, 16, 32}),
               ContractViolation);
}

TEST(Contracts, PipelineRegisterAccessOutOfRange) {
  pisa::Pipeline pipeline;
  const auto id = pipeline.add_register_array("leafs", 8, 16);

  // Unknown array id.
  EXPECT_THROW(pipeline.register_array(id + 1), ContractViolation);

  // Out-of-range cell access names the offending array.
  try {
    (void)pipeline.register_array(id).at(16);
    FAIL() << "RegisterArray::at did not throw";
  } catch (const ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("leafs"), std::string::npos);
  }
}

TEST(Contracts, PipelineAddActionChecksAtInsertionTime) {
  pisa::Pipeline pipeline;
  const auto stage = pipeline.add_stage();
  const auto array = pipeline.add_register_array("r", 8, 16);

  // sALU referencing an unknown array fails when added, not at validate().
  EXPECT_THROW(
      pipeline.add_action(
          stage, pisa::SaluAction{pisa::SaluAction::Kind::kRead, array + 7, 0, 1}),
      ContractViolation);

  // Missing stage.
  EXPECT_THROW(
      pipeline.add_action(
          stage + 1, pisa::SaluAction{pisa::SaluAction::Kind::kRead, array, 0, 1}),
      ContractViolation);

  // PHV field out of range.
  pisa::SaluAction bad_index{pisa::SaluAction::Kind::kRead, array,
                             static_cast<int>(pisa::Phv::kFields), 1};
  EXPECT_THROW(pipeline.add_action(stage, bad_index), ContractViolation);

  // Field-action division by zero.
  EXPECT_THROW(
      pipeline.add_action(
          stage, pisa::FieldAction{pisa::FieldAction::Op::kDivImm, 0, -1, -1, 0, -1}),
      ContractViolation);

  // Bad register geometry names the array.
  EXPECT_THROW(pipeline.add_register_array("bad", 1, 10), ContractViolation);
  EXPECT_THROW(pipeline.add_register_array("bad", 33, 10), ContractViolation);
  EXPECT_THROW(pipeline.add_register_array("bad", 8, 0), ContractViolation);
}

TEST(Contracts, PipelineValidateNamesOffenders) {
  pisa::PipelineLimits limits;
  limits.max_salus_per_stage = 1;
  pisa::Pipeline pipeline(limits);
  const auto stage = pipeline.add_stage();
  const auto a = pipeline.add_register_array("alpha", 8, 4);
  const auto b = pipeline.add_register_array("beta", 8, 4);
  pipeline.add_action(stage, pisa::SaluAction{pisa::SaluAction::Kind::kRead, a, 0, 1});
  pipeline.add_action(stage, pisa::SaluAction{pisa::SaluAction::Kind::kRead, b, 0, 2});
  try {
    pipeline.validate();
    FAIL() << "validate did not throw";
  } catch (const pisa::PipelineError& error) {
    EXPECT_NE(std::string(error.what()).find("stage 0"), std::string::npos);
  }

  // Double access reports the array by name.
  pisa::Pipeline pipeline2;
  const auto s2 = pipeline2.add_stage();
  const auto r = pipeline2.add_register_array("gamma", 8, 4);
  pipeline2.add_action(s2, pisa::SaluAction{pisa::SaluAction::Kind::kRead, r, 0, 1});
  pipeline2.add_action(s2, pisa::SaluAction{pisa::SaluAction::Kind::kRead, r, 0, 2});
  try {
    pipeline2.validate();
    FAIL() << "validate did not throw";
  } catch (const pisa::PipelineError& error) {
    EXPECT_NE(std::string(error.what()).find("gamma"), std::string::npos);
  }
}

TEST(Contracts, EmDegenerateInputsFail) {
  // No arrays.
  EXPECT_THROW(control::EmFsdEstimator({}), ContractViolation);

  // leaf_count == 0 would divide by zero in lambda().
  control::VirtualCounterArray zero_leaves;
  zero_leaves.leaf_count = 0;
  zero_leaves.counters.push_back(control::VirtualCounter{5, 1});
  EXPECT_THROW(control::EmFsdEstimator({zero_leaves}), ContractViolation);

  // A non-empty counter of degree 0 is structurally impossible (§4.1).
  control::VirtualCounterArray degree_zero;
  degree_zero.leaf_count = 8;
  degree_zero.counters.push_back(control::VirtualCounter{5, 0});
  EXPECT_THROW(control::EmFsdEstimator({degree_zero}), ContractViolation);

  // max_iterations == 0 runs no EM step; reject it loudly.
  control::VirtualCounterArray ok;
  ok.leaf_count = 8;
  ok.counters.push_back(control::VirtualCounter{5, 1});
  control::EmConfig config;
  config.max_iterations = 0;
  EXPECT_THROW(control::EmFsdEstimator({ok}, config), ContractViolation);
}

TEST(Contracts, FilterAndBaselineConstructorsFail) {
  EXPECT_THROW(sketch::TopKFilter(0), ContractViolation);
  EXPECT_THROW(sketch::TopKFilter(16, 0), ContractViolation);
  EXPECT_THROW(sketch::CmSketch(0, 100), ContractViolation);
  EXPECT_THROW(sketch::CmSketch(3, 0), ContractViolation);
  EXPECT_THROW(pisa::HardwareTopKFilter(0), ContractViolation);
}

#endif  // FCM_CONTRACT_LEVEL == 1

// --- cardinality saturation (contract-guarded, counted) ------------------

TEST(Contracts, CardinalitySaturationIsCountedNotSilent) {
  core::FcmConfig config = small_config();
  config.leaf_count = 64;
  config.tree_count = 1;
  core::FcmSketch sketch(config);
  EXPECT_EQ(sketch.cardinality_saturation_count(), 0u);

  // Fill every leaf so linear counting runs out of range.
  for (std::uint32_t i = 0; i < 5000; ++i) sketch.update(flow::FlowKey{i + 1});
  const double saturated = sketch.estimate_cardinality();
  EXPECT_TRUE(std::isfinite(saturated));
  EXPECT_GT(saturated, 64.0);
  EXPECT_EQ(sketch.cardinality_saturation_count(), 1u);
  (void)sketch.estimate_cardinality();
  EXPECT_EQ(sketch.cardinality_saturation_count(), 2u);

  sketch.clear();
  EXPECT_EQ(sketch.cardinality_saturation_count(), 0u);
  EXPECT_NEAR(sketch.estimate_cardinality(), 0.0, 1e-9);
  EXPECT_EQ(sketch.cardinality_saturation_count(), 0u);  // guard did not fire
}

// --- check_invariants() sweep over every core type -----------------------

flow::Trace sweep_trace(std::uint64_t seed) {
  flow::SyntheticTraceConfig config;
  config.packet_count = 60000;
  config.flow_count = 6000;
  config.seed = seed;
  return flow::SyntheticTraceGenerator(config).generate();
}

TEST(InvariantSweep, FcmSketchUpdates) {
  const flow::Trace trace = sweep_trace(11);
  core::FcmSketch sketch(small_config(11));
  for (const flow::Packet& p : trace.packets()) sketch.update(p.key);
  sketch.check_invariants();
}

TEST(InvariantSweep, FcmTreeOverflowConsistencyUnderBulkAdds) {
  core::FcmConfig config = small_config(5);
  config.tree_count = 1;
  config.leaf_count = 64;  // force heavy overflow into stages 2 and 3
  core::FcmSketch sketch(config);
  for (std::uint32_t i = 0; i < 512; ++i) {
    sketch.add(flow::FlowKey{i + 1}, 1 + (i % 700));
  }
  sketch.check_invariants();
  for (std::size_t t = 0; t < sketch.tree_count(); ++t) {
    sketch.tree(t).check_invariants();
  }
}

TEST(InvariantSweep, TopKVariants) {
  const flow::Trace trace = sweep_trace(12);

  core::FcmTopK::Config config;
  config.fcm = small_config(12);
  config.topk_entries = 512;
  core::FcmTopK topk(config);

  sketch::TopKFilter filter(256);
  pisa::HardwareFcmTopK hw(small_config(12), 512);

  for (const flow::Packet& p : trace.packets()) {
    topk.update(p.key);
    (void)filter.offer(p.key);
    hw.update(p.key);
  }
  topk.check_invariants();
  filter.check_invariants();
  hw.check_invariants();
}

TEST(InvariantSweep, PipelineProgram) {
  const flow::Trace trace = sweep_trace(13);
  core::FcmConfig config = small_config(13);
  config.leaf_count = 4096;
  pisa::FcmP4Program program(config);
  for (const flow::Packet& p : trace.packets()) program.update(p.key);
  program.check_invariants();
  program.pipeline().check_invariants();
}

TEST(InvariantSweep, VirtualCountersAndEm) {
  const flow::Trace trace = sweep_trace(14);
  core::FcmSketch sketch(small_config(14));
  for (const flow::Packet& p : trace.packets()) sketch.update(p.key);

  const auto arrays = control::convert_sketch(sketch);
  std::uint64_t total = 0;
  for (const auto& array : arrays) {
    array.check_invariants();
    total += array.total_value();
  }
  // Conversion round-trip: mass preserved per tree (§4.1).
  for (std::size_t t = 0; t < sketch.tree_count(); ++t) {
    EXPECT_EQ(arrays[t].total_value(), sketch.tree(t).total_count());
  }
  EXPECT_GT(total, 0u);

  control::EmConfig em_config;
  em_config.max_iterations = 2;
  control::EmFsdEstimator em(arrays, em_config);
  em.check_invariants();  // initialization preserves mass
  em.run();
  em.check_invariants();  // every step preserves mass
}

TEST(InvariantSweep, BaselinesAndFramework) {
  const flow::Trace trace = sweep_trace(15);

  sketch::CmSketch cm(3, 4096);
  sketch::CuSketch cu(3, 4096);

  framework::FcmFramework::Options options;
  options.fcm = small_config(15);
  framework::FcmFramework fw(options);

  for (const flow::Packet& p : trace.packets()) {
    cm.update(p.key);
    cu.update(p.key);
    fw.process(p.key);
  }
  cm.check_invariants();
  cu.check_invariants();
  fw.check_invariants();
}

}  // namespace
}  // namespace fcm
