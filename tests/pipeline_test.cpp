// Tests for the network-level pipeline model and chip planning.
#include <gtest/gtest.h>

#include "red/arch/chip.h"
#include "red/common/error.h"
#include "red/core/designs.h"
#include "red/sim/pipeline.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/networks.h"

namespace red::sim {
namespace {

TEST(Pipeline, SequentialLatencyIsSumOfStages) {
  const auto stack = workloads::sngan_generator();
  const auto r = evaluate_pipeline(core::DesignKind::kRed, stack);
  ASSERT_EQ(r.stages.size(), stack.size());
  double sum = 0;
  for (const auto& s : r.stages) sum += s.cost.total_latency().value();
  EXPECT_NEAR(r.sequential_latency.value(), sum, 1e-9);
  EXPECT_EQ(r.design_name, "RED");
}

TEST(Pipeline, InitiationIntervalIsSlowestStage) {
  const auto stack = workloads::fcn8s_upsampling();
  const auto r = evaluate_pipeline(core::DesignKind::kZeroPadding, stack);
  double slowest = 0;
  for (const auto& s : r.stages) slowest = std::max(slowest, s.cost.total_latency().value());
  EXPECT_DOUBLE_EQ(r.initiation_interval.value(), slowest);
  // The 568x568 stage dominates by orders of magnitude.
  EXPECT_GT(slowest / r.stages.front().cost.total_latency().value(), 50.0);
}

TEST(Pipeline, PipelinedLatencyFormula) {
  const auto stack = workloads::sngan_generator();
  const auto r = evaluate_pipeline(core::DesignKind::kRed, stack);
  EXPECT_DOUBLE_EQ(r.pipelined_latency(1).value(), r.fill_latency.value());
  EXPECT_NEAR(r.pipelined_latency(11).value(),
              r.fill_latency.value() + 10 * r.initiation_interval.value(), 1e-6);
  EXPECT_GT(r.throughput_img_per_s(), 0.0);
  EXPECT_THROW((void)r.pipelined_latency(0), ContractViolation);
}

TEST(Pipeline, RedBeatsZeroPaddingAtNetworkLevel) {
  for (const auto& stack :
       {workloads::dcgan_generator(), workloads::sngan_generator(),
        workloads::fcn8s_upsampling()}) {
    const auto zp = evaluate_pipeline(core::DesignKind::kZeroPadding, stack);
    const auto red = evaluate_pipeline(core::DesignKind::kRed, stack);
    EXPECT_GT(zp.sequential_latency / red.sequential_latency, 3.0) << stack.front().name;
    EXPECT_GT(zp.initiation_interval / red.initiation_interval, 3.0) << stack.front().name;
    EXPECT_LT(red.energy_per_image.value(), zp.energy_per_image.value()) << stack.front().name;
  }
}

TEST(Pipeline, BufferBitsCoverInterStageActivations) {
  const auto stack = workloads::sngan_generator();
  const auto r = evaluate_pipeline(core::DesignKind::kRed, stack);
  std::int64_t expect = 0;
  for (std::size_t i = 0; i + 1 < stack.size(); ++i)
    expect += 2LL * stack[i].oh() * stack[i].ow() * stack[i].m * 8;  // double-buffered, 8-bit
  EXPECT_EQ(r.buffer_bits, expect);
}

TEST(Pipeline, RejectsBrokenStack) {
  auto stack = workloads::sngan_generator();
  stack.pop_back();
  stack.push_back(workloads::fcn_deconv2());  // does not chain
  EXPECT_THROW((void)evaluate_pipeline(core::DesignKind::kRed, stack), ConfigError);
}

}  // namespace
}  // namespace red::sim

namespace red::arch {
namespace {

ChipConfig test_chip() {
  ChipConfig chip;
  chip.banks = 8;
  chip.subarrays_per_bank = 512;
  chip.subarray = {128, 128};
  return chip;
}

TEST(Chip, PlanCountsSubarraysPerDesign) {
  const auto stack = workloads::sngan_generator();
  const auto plan = plan_chip(plan::plan_stack(core::DesignKind::kRed, stack, {}), test_chip());
  ASSERT_EQ(plan.layers.size(), stack.size());
  EXPECT_GT(plan.required_subarrays, 0);
  EXPECT_EQ(plan.available_subarrays, 8 * 512);
  EXPECT_GT(plan.chip_area.value(), 0.0);
  for (const auto& l : plan.layers) {
    EXPECT_GT(l.subarrays, 0) << l.layer;
    EXPECT_LE(l.utilized_cells, l.allocated_cells) << l.layer;
  }
}

TEST(Chip, UtilizationWithinUnitInterval) {
  const auto stack = workloads::fcn8s_upsampling();
  for (const auto& design : core::make_all_designs()) {
    const auto plan =
        plan_chip(plan::plan_stack(design->kind(), stack, design->config()), test_chip());
    EXPECT_GT(plan.cell_utilization(), 0.0) << design->name();
    EXPECT_LE(plan.cell_utilization(), 1.0) << design->name();
  }
}

TEST(Chip, SmallChipDoesNotFitLargeNetwork) {
  ChipConfig tiny;
  tiny.banks = 1;
  tiny.subarrays_per_bank = 4;
  const auto plan =
      plan_chip(plan::plan_stack(core::DesignKind::kRed, workloads::dcgan_generator(), {}), tiny);
  EXPECT_FALSE(plan.fits);
  EXPECT_GT(plan.occupancy(), 1.0);
}

TEST(Chip, FcnLayersWasteCellsOnTinyChannels) {
  // 21-channel FCN macros under-fill 128x128 subarrays; GAN macros fill them.
  const auto fcn =
      plan_chip(plan::plan_stack(core::DesignKind::kRed, {workloads::fcn_deconv1()}, {}),
                test_chip());
  const auto gan =
      plan_chip(plan::plan_stack(core::DesignKind::kRed, {workloads::gan_deconv3()}, {}),
                test_chip());
  EXPECT_LT(fcn.cell_utilization(), 0.5);  // 84x84 groups in 128x128 tiles
  EXPECT_GT(gan.cell_utilization(), 0.9);
  EXPECT_LT(fcn.cell_utilization(), gan.cell_utilization());
}

TEST(Chip, RedNeedsMoreSubarraysThanZeroPadding) {
  // Segmentation: RED's per-SC decoders cannot share subarrays.
  const auto stack = workloads::dcgan_generator();
  const auto zp =
      plan_chip(plan::plan_stack(core::DesignKind::kZeroPadding, stack, {}), test_chip());
  const auto red = plan_chip(plan::plan_stack(core::DesignKind::kRed, stack, {}), test_chip());
  EXPECT_GE(red.required_subarrays, zp.required_subarrays);
}

TEST(Chip, ConfigValidation) {
  ChipConfig bad = test_chip();
  bad.banks = 0;
  const auto splan = plan::plan_stack(core::DesignKind::kRed, {workloads::gan_deconv3()}, {});
  EXPECT_THROW((void)plan_chip(splan, bad), ConfigError);
  bad = test_chip();
  bad.global_buffer_bits = 0;
  EXPECT_THROW((void)plan_chip(splan, bad), ConfigError);
}

}  // namespace
}  // namespace red::arch
