// Tests for plan-based chip placement: real per-layer bank/slot assignment,
// per-layer diagnostics, and the placement edge cases (exact fit, one-over,
// zero-layer stack, segmentation overhead).
#include <gtest/gtest.h>

#include <numeric>

#include "red/arch/chip.h"
#include "red/core/designs.h"
#include "red/plan/plan.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/networks.h"

namespace red::arch {
namespace {

using core::DesignKind;

ChipConfig chip_with(int banks, std::int64_t subarrays_per_bank) {
  ChipConfig chip;
  chip.banks = banks;
  chip.subarrays_per_bank = subarrays_per_bank;
  chip.subarray = {128, 128};
  return chip;
}

TEST(ChipPlan, AssignsContiguousSlotsWithinBanks) {
  // Full-channel sngan on RED demands 512 + 128 + 32 subarrays: layer 1
  // exactly fills bank 0, layers 2 and 3 pack back to back into bank 1.
  const auto splan =
      plan::plan_stack(DesignKind::kRed, workloads::sngan_generator(), {});
  const auto plan = plan_chip(splan, chip_with(8, 512));
  ASSERT_EQ(plan.layers.size(), 3u);
  EXPECT_TRUE(plan.fits);
  EXPECT_TRUE(plan.diagnostics.empty());
  std::int64_t total = 0;
  int prev_bank = 0;
  std::int64_t prev_end = 0;
  for (const auto& l : plan.layers) {
    ASSERT_TRUE(l.placed()) << l.layer;
    EXPECT_EQ(l.subarray_end - l.subarray_begin, l.subarrays) << l.layer;
    EXPECT_LE(l.subarray_end, 512) << l.layer;  // never straddles a bank
    if (l.bank == prev_bank) {
      EXPECT_EQ(l.subarray_begin, prev_end) << l.layer;  // contiguous within a bank
    } else {
      EXPECT_EQ(l.bank, prev_bank + 1) << l.layer;  // next-fit: banks in order
      EXPECT_EQ(l.subarray_begin, 0) << l.layer;
    }
    prev_bank = l.bank;
    prev_end = l.subarray_end;
    total += l.subarrays;
  }
  EXPECT_EQ(plan.layers[0].bank, 0);
  EXPECT_EQ(plan.layers[0].subarrays, 512);  // exactly fills its bank
  EXPECT_EQ(plan.layers[1].bank, 1);
  EXPECT_EQ(plan.layers[2].bank, 1);
  EXPECT_EQ(plan.banks_used, 2);
  EXPECT_EQ(plan.required_subarrays, total);
}

TEST(ChipPlan, ExactFitFits) {
  const auto splan = plan::plan_stack(DesignKind::kRed, {workloads::gan_deconv3()}, {});
  // First find the layer's demand, then build a chip that exactly matches it.
  const auto probe = plan_chip(splan, chip_with(1, 1 << 20));
  const std::int64_t demand = probe.layers[0].subarrays;
  ASSERT_GT(demand, 0);

  const auto exact = plan_chip(splan, chip_with(1, demand));
  EXPECT_TRUE(exact.fits);
  EXPECT_DOUBLE_EQ(exact.occupancy(), 1.0);
  EXPECT_EQ(exact.layers[0].bank, 0);
  EXPECT_EQ(exact.layers[0].subarray_begin, 0);
  EXPECT_EQ(exact.layers[0].subarray_end, demand);
}

TEST(ChipPlan, OneSubarrayShortFailsWithLayerDiagnostic) {
  const auto splan = plan::plan_stack(DesignKind::kRed, {workloads::gan_deconv3()}, {});
  const auto probe = plan_chip(splan, chip_with(1, 1 << 20));
  const std::int64_t demand = probe.layers[0].subarrays;

  const auto over = plan_chip(splan, chip_with(1, demand - 1));
  EXPECT_FALSE(over.fits);
  ASSERT_EQ(over.diagnostics.size(), 1u);
  EXPECT_NE(over.diagnostics[0].find(workloads::gan_deconv3().name), std::string::npos)
      << over.diagnostics[0];
  EXPECT_FALSE(over.layers[0].placed());
  EXPECT_EQ(over.layers[0].bank, -1);
  // Demand accounting is still reported for the unplaced layer.
  EXPECT_EQ(over.required_subarrays, demand);
}

TEST(ChipPlan, ZeroLayerStackTriviallyFits) {
  plan::StackPlan empty;
  empty.kind = DesignKind::kRed;
  const auto plan = plan_chip(empty, chip_with(2, 16));
  EXPECT_TRUE(plan.fits);
  EXPECT_TRUE(plan.layers.empty());
  EXPECT_EQ(plan.required_subarrays, 0);
  EXPECT_EQ(plan.banks_used, 0);
  EXPECT_DOUBLE_EQ(plan.occupancy(), 0.0);
  EXPECT_GT(plan.chip_area.value(), 0.0);  // the chip exists without a workload
}

TEST(ChipPlan, LayerSpillsToNextBankWhenRemainderIsTooSmall) {
  const auto splan =
      plan::plan_stack(DesignKind::kRed, workloads::sngan_generator(), {});
  const std::int64_t d0 = plan_chip(splan, chip_with(1, 1 << 20)).layers[0].subarrays;
  const std::int64_t d1 = plan_chip(splan, chip_with(1, 1 << 20)).layers[1].subarrays;
  // A bank that holds layer 0 but not layer 0 + layer 1: layer 1 must start
  // at slot 0 of bank 1 (layers never straddle banks).
  const auto plan = plan_chip(splan, chip_with(3, d0 + d1 - 1));
  ASSERT_TRUE(plan.fits) << "needs d0 + d1 - 1 >= each individual layer";
  EXPECT_EQ(plan.layers[0].bank, 0);
  EXPECT_EQ(plan.layers[1].bank, 1);
  EXPECT_EQ(plan.layers[1].subarray_begin, 0);
}

TEST(ChipPlan, RunningOutOfBanksNamesTheLayer) {
  const auto splan =
      plan::plan_stack(DesignKind::kRed, workloads::sngan_generator(), {});
  const std::int64_t d0 = plan_chip(splan, chip_with(1, 1 << 20)).layers[0].subarrays;
  // One bank, sized so only the first layer places.
  const auto plan = plan_chip(splan, chip_with(1, d0));
  EXPECT_FALSE(plan.fits);
  EXPECT_TRUE(plan.layers[0].placed());
  EXPECT_FALSE(plan.layers[1].placed());
  ASSERT_GE(plan.diagnostics.size(), 1u);
  EXPECT_NE(plan.diagnostics[0].find("no bank left"), std::string::npos)
      << plan.diagnostics[0];
  EXPECT_NE(plan.diagnostics[0].find(splan.layers[1].spec.name), std::string::npos);
}

TEST(ChipPlan, SegmentationOverheadRedVsPaddingFree) {
  // RED pays a segmentation floor (per-SC decoders cannot share subarrays);
  // the padding-free design never does — its demand is exactly its tiled
  // area. On the FCN head the RED floor strictly exceeds its tile count.
  const auto chip = chip_with(8, 4096);
  const auto red_splan = plan::plan_stack(DesignKind::kRed, {workloads::fcn_deconv1()}, {});
  const auto pf_splan =
      plan::plan_stack(DesignKind::kPaddingFree, {workloads::fcn_deconv1()}, {});
  const auto red = plan_chip(red_splan, chip);
  const auto pf = plan_chip(pf_splan, chip);

  const auto tile_sum = [&chip](const plan::LayerPlan& lp) {
    std::int64_t sum = 0;
    for (const auto& m : lp.activity.macros)
      sum += m.count * xbar::plan_tiling(m.rows, m.phys_cols, chip.subarray).tiles();
    return sum;
  };
  EXPECT_EQ(red.layers[0].subarrays,
            std::max(tile_sum(red_splan.layers[0]), red_splan.layers[0].activity.dec_units));
  EXPECT_GT(red.layers[0].subarrays, tile_sum(red_splan.layers[0]));  // floor bites
  EXPECT_EQ(pf.layers[0].subarrays, tile_sum(pf_splan.layers[0]));   // no floor
  EXPECT_FALSE(pf_splan.layers[0].activity.split_macro);
}

}  // namespace
}  // namespace red::arch
