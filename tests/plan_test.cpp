// Tests for the compile layer (red::plan): plan compilation, consumer
// equivalence (bit-identical outputs/RunStats/cost vs the pre-plan paths),
// fingerprint properties, and JSON round-trips.
#include <gtest/gtest.h>

#include <vector>

#include "red/common/error.h"
#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/core/red_design.h"
#include "red/explore/sweep.h"
#include "red/plan/plan.h"
#include "red/report/json.h"
#include "red/sim/engine.h"
#include "red/sim/streaming.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"

namespace red {
namespace {

using core::DesignKind;

const std::vector<DesignKind> kAllKinds = {DesignKind::kZeroPadding, DesignKind::kPaddingFree,
                                           DesignKind::kRed};

nn::DeconvLayerSpec small_layer() {
  nn::DeconvLayerSpec spec;
  spec.name = "plan_test_layer";
  spec.ih = 4;
  spec.iw = 4;
  spec.c = 3;
  spec.m = 5;
  spec.kh = 4;
  spec.kw = 4;
  spec.stride = 2;
  spec.pad = 1;
  spec.validate();
  return spec;
}

TEST(Plan, ActivityMatchesDesignActivityForAllKindsAndConfigs) {
  for (const auto& spec : {small_layer(), workloads::gan_deconv3(), workloads::fcn_deconv1()}) {
    for (DesignKind kind : kAllKinds) {
      for (bool tiled : {false, true}) {
        arch::DesignConfig cfg;
        cfg.tiled = tiled;
        const auto lp = plan::plan_layer(kind, spec, cfg);
        const auto design = core::make_design(kind, cfg);
        EXPECT_EQ(lp.activity, design->activity(spec)) << spec.name;
        EXPECT_EQ(lp.activity, design->activity(lp)) << spec.name;
        EXPECT_EQ(design->kind(), kind);
      }
    }
  }
}

TEST(Plan, CostFromPlanMatchesCostFromSpec) {
  for (const auto& spec : {small_layer(), workloads::fcn_deconv2()}) {
    for (DesignKind kind : kAllKinds) {
      for (bool tiled : {false, true}) {
        arch::DesignConfig cfg;
        cfg.tiled = tiled;
        cfg.mux_ratio = 4;
        const auto lp = plan::plan_layer(kind, spec, cfg);
        const auto design = core::make_design(kind, cfg);
        const auto from_spec = design->cost(spec);
        const auto from_plan = design->cost(lp);
        EXPECT_EQ(from_spec.cycles(), from_plan.cycles());
        EXPECT_EQ(from_spec.total_latency().value(), from_plan.total_latency().value());
        EXPECT_EQ(from_spec.total_energy().value(), from_plan.total_energy().value());
        EXPECT_EQ(from_spec.total_area().value(), from_plan.total_area().value());
      }
    }
  }
}

TEST(Plan, ResolvedFoldMatchesRedDesign) {
  arch::DesignConfig cfg;
  const core::RedDesign red(cfg);
  for (const auto& spec : workloads::table1_benchmarks()) {
    const auto lp = plan::plan_layer(DesignKind::kRed, spec, cfg);
    EXPECT_EQ(lp.fold, red.fold_for(spec)) << spec.name;
    EXPECT_EQ(lp.activity.fold, lp.fold) << spec.name;
    EXPECT_FALSE(lp.groups.empty()) << spec.name;
    // The mode groups partition the kernel taps (Eq. 1).
    std::int64_t taps = 0;
    for (const auto& g : lp.groups) taps += static_cast<std::int64_t>(g.scs.size());
    EXPECT_EQ(taps, std::int64_t{spec.kh} * spec.kw) << spec.name;
  }
  // Config override wins over auto-fold.
  arch::DesignConfig forced = cfg;
  forced.red_fold = 4;
  EXPECT_EQ(plan::plan_layer(DesignKind::kRed, workloads::fcn_deconv2(), forced).fold, 4);
  // Baselines never fold.
  EXPECT_EQ(plan::plan_layer(DesignKind::kZeroPadding, small_layer(), cfg).fold, 1);
}

TEST(Plan, TileGridCoversEveryMacro) {
  const auto lp = plan::plan_layer(DesignKind::kRed, workloads::gan_deconv3(), {});
  ASSERT_EQ(lp.tiles.size(), lp.activity.macros.size());
  for (std::size_t i = 0; i < lp.tiles.size(); ++i) {
    EXPECT_EQ(lp.tiles[i].logical_rows, lp.activity.macros[i].rows);
    EXPECT_EQ(lp.tiles[i].logical_cols, lp.activity.macros[i].phys_cols);
    EXPECT_GE(lp.tiles[i].tiles(), 1);
  }
}

TEST(Plan, ProgramFromPlanBitIdenticalToRun) {
  const auto spec = small_layer();
  Rng rng(11);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  for (DesignKind kind :
       {DesignKind::kZeroPadding, DesignKind::kPaddingFree, DesignKind::kRed}) {
    const arch::DesignConfig cfg;
    const auto design = core::make_design(kind, cfg);
    const auto lp = plan::plan_layer(kind, spec, cfg);
    const auto programmed = design->program(lp, kernel);
    arch::RunStats programmed_stats, run_stats;
    const auto out_programmed = programmed->run(input, &programmed_stats);
    const auto out_run = design->run(spec, input, kernel, &run_stats);
    EXPECT_TRUE(first_mismatch(out_run, out_programmed).empty()) << design->name();
    EXPECT_EQ(programmed_stats, run_stats) << design->name();
  }
}

TEST(Plan, DesignRejectsForeignPlan) {
  const auto spec = small_layer();
  const auto design = core::make_design(DesignKind::kRed);
  // Wrong kind.
  const auto zp_plan = plan::plan_layer(DesignKind::kZeroPadding, spec, {});
  EXPECT_THROW((void)design->activity(zp_plan), ContractViolation);
  EXPECT_THROW((void)design->cost(zp_plan), ContractViolation);
  // Wrong config.
  arch::DesignConfig other;
  other.mux_ratio = 2;
  const auto other_plan = plan::plan_layer(DesignKind::kRed, spec, other);
  EXPECT_THROW((void)design->cost(other_plan), ContractViolation);
}

TEST(Plan, SimulateFromPlanMatchesSimulateFromSpec) {
  const auto spec = small_layer();
  Rng rng(3);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  for (DesignKind kind : kAllKinds) {
    const auto design = core::make_design(kind);
    const auto lp = plan::plan_layer(kind, spec, design->config());
    const auto a = sim::simulate(*design, spec, input, kernel, /*check=*/true);
    const auto b = sim::simulate(*design, lp, input, kernel, /*check=*/true);
    EXPECT_TRUE(first_mismatch(a.output, b.output).empty()) << design->name();
    EXPECT_EQ(a.measured, b.measured) << design->name();
    EXPECT_EQ(a.predicted, b.predicted) << design->name();
    EXPECT_EQ(a.cost.total_energy().value(), b.cost.total_energy().value()) << design->name();
  }
}

TEST(Plan, SimulateNetworkFromStackPlanMatches) {
  const auto stack = workloads::sngan_generator(/*channel_div=*/16);
  const arch::DesignConfig cfg;
  std::vector<Tensor<std::int32_t>> inputs, kernels;
  Rng rng(5);
  for (const auto& spec : stack) {
    inputs.push_back(workloads::make_input(spec, rng, 1, 7));
    kernels.push_back(workloads::make_kernel(spec, rng, -7, 7));
  }
  const auto design = core::make_design(DesignKind::kRed, cfg);
  const auto a = sim::simulate_network(*design, stack, inputs, kernels, true, 2);
  const auto splan = plan::plan_stack(DesignKind::kRed, stack, cfg);
  const auto b = sim::simulate_network(splan, inputs, kernels, true, 2);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  EXPECT_EQ(a.total, b.total);
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_TRUE(first_mismatch(a.layers[i].output, b.layers[i].output).empty()) << i;
    EXPECT_EQ(a.layers[i].measured, b.layers[i].measured) << i;
  }
}

TEST(Plan, StreamingFromStackPlanBitIdentical) {
  const auto stack = workloads::named_stack("sngan", /*channel_div=*/16);
  const arch::DesignConfig cfg;
  const auto kernels = workloads::make_stack_kernels(stack, 7);
  const auto images = workloads::make_input_batch(stack[0], 3, 7);
  const sim::StreamingExecutor from_specs(DesignKind::kRed, cfg, stack, kernels);
  const sim::StreamingExecutor from_plan(plan::plan_stack(DesignKind::kRed, stack, cfg),
                                         kernels);
  EXPECT_EQ(from_plan.stack_plan().fingerprint(),
            plan::plan_stack(DesignKind::kRed, stack, cfg).fingerprint());
  sim::StreamingOptions opts;
  opts.threads = 2;
  const auto a = from_specs.stream(images, opts);
  const auto b = from_plan.stream(images, opts);
  ASSERT_EQ(a.images.size(), b.images.size());
  EXPECT_EQ(a.total, b.total);
  for (std::size_t k = 0; k < a.images.size(); ++k) {
    EXPECT_TRUE(first_mismatch(a.images[k].output, b.images[k].output).empty()) << k;
    EXPECT_EQ(a.images[k].total, b.images[k].total) << k;
  }
}

TEST(PlanFingerprint, StableAndDiscriminating) {
  const auto spec = small_layer();
  const arch::DesignConfig cfg;
  const auto base = plan::plan_layer(DesignKind::kRed, spec, cfg);
  EXPECT_EQ(base.fingerprint(), plan::plan_layer(DesignKind::kRed, spec, cfg).fingerprint());
  EXPECT_EQ(base.key, plan::structural_key(DesignKind::kRed, cfg, spec));

  // Kind, config, and geometry all discriminate.
  EXPECT_NE(base.fingerprint(),
            plan::plan_layer(DesignKind::kZeroPadding, spec, cfg).fingerprint());
  arch::DesignConfig cfg2 = cfg;
  cfg2.mux_ratio = 4;
  EXPECT_NE(base.fingerprint(), plan::plan_layer(DesignKind::kRed, spec, cfg2).fingerprint());
  auto spec2 = spec;
  spec2.m += 1;
  EXPECT_NE(base.fingerprint(), plan::plan_layer(DesignKind::kRed, spec2, cfg).fingerprint());

  // Execution details (threads) and presentation (name) do not.
  arch::DesignConfig cfg3 = cfg;
  cfg3.threads = 8;
  auto spec3 = spec;
  spec3.name = "renamed";
  EXPECT_EQ(base.fingerprint(), plan::plan_layer(DesignKind::kRed, spec3, cfg3).fingerprint());
}

TEST(PlanFingerprint, StackFingerprintFramesLayerKeys) {
  const auto stack = workloads::sngan_generator(16);
  const auto a = plan::plan_stack(DesignKind::kRed, stack, {});
  auto reordered = stack;
  std::swap(reordered[0], reordered[2]);
  const auto b = plan::plan_stack(DesignKind::kRed, reordered, {});
  EXPECT_NE(a.fingerprint(), b.fingerprint());  // order matters
  EXPECT_EQ(a.fingerprint(), plan::plan_stack(DesignKind::kRed, stack, {}).fingerprint());
  // A single layer's stack differs from the bare layer key's digest domain.
  EXPECT_EQ(a.layers.size(), 3u);
}

TEST(PlanJson, LayerRoundTripPreservesFingerprint) {
  for (DesignKind kind : kAllKinds) {
    arch::DesignConfig cfg;
    cfg.tiled = true;
    cfg.quant.adc.mode = xbar::AdcMode::kClipped;
    cfg.quant.adc.bits = 6;
    cfg.node = tech::TechNode::node32();
    const auto lp = plan::plan_layer(kind, workloads::gan_deconv3(), cfg);
    const auto json = report::to_json(lp);
    const auto back = report::layer_plan_from_json(json);
    EXPECT_EQ(back.fingerprint(), lp.fingerprint()) << core::kind_to_name(kind);
    EXPECT_EQ(back.key, lp.key) << core::kind_to_name(kind);
    EXPECT_EQ(back.fold, lp.fold);
    EXPECT_EQ(back.activity, lp.activity);
    EXPECT_EQ(back.spec.name, lp.spec.name);
  }
}

TEST(PlanJson, StackRoundTripPreservesFingerprint) {
  const auto stack = workloads::dcgan_generator(/*channel_div=*/8);
  const auto sp = plan::plan_stack(DesignKind::kRed, stack, {});
  const auto json = report::to_json(sp);
  const auto back = report::stack_plan_from_json(json);
  EXPECT_EQ(back.fingerprint(), sp.fingerprint());
  ASSERT_EQ(back.layers.size(), sp.layers.size());
  for (std::size_t i = 0; i < sp.layers.size(); ++i)
    EXPECT_EQ(back.layers[i].fingerprint(), sp.layers[i].fingerprint()) << i;
}

TEST(PlanJson, CorruptedFingerprintIsRejected) {
  const auto lp = plan::plan_layer(DesignKind::kRed, small_layer(), {});
  auto json = report::to_json(lp);
  const auto fp = lp.fingerprint();
  const auto pos = json.find(fp);
  ASSERT_NE(pos, std::string::npos);
  json[pos] = fp[0] == '0' ? '1' : '0';  // flip one fingerprint digit
  EXPECT_THROW((void)report::layer_plan_from_json(json), MismatchError);
}

TEST(PlanJson, MalformedDocumentsAreRejected) {
  EXPECT_THROW((void)report::layer_plan_from_json("{"), ConfigError);
  EXPECT_THROW((void)report::layer_plan_from_json("{}"), ConfigError);
  EXPECT_THROW((void)report::layer_plan_from_json("[1, 2]"), ConfigError);
  // A stack plan is not a layer plan.
  const auto sp = plan::plan_stack(DesignKind::kRed, {small_layer()}, {});
  EXPECT_THROW((void)report::layer_plan_from_json(report::to_json(sp)), ConfigError);
}

TEST(PlanJson, MissingFingerprintIsRejected) {
  // Deleting the fingerprint must not defeat the tamper evidence that
  // corrupting it triggers: absence is an error too.
  const auto lp = plan::plan_layer(DesignKind::kRed, small_layer(), {});
  auto json = report::to_json(lp);
  const std::string field = "\"fingerprint\": \"" + lp.fingerprint() + "\",\n";
  const auto pos = json.find(field);
  ASSERT_NE(pos, std::string::npos);
  json.erase(pos, field.size());
  EXPECT_THROW((void)report::layer_plan_from_json(json), ConfigError);
}

TEST(PlanJson, RoundTripSurvivesNonDefaultCalibrationAndSeed) {
  // max_digits10 serialization must round-trip awkward doubles and a
  // > 2^53 seed exactly (they are fingerprinted).
  arch::DesignConfig cfg;
  cfg.calib.t_wd_wire_col2 = 1.0 / 3.0;
  cfg.calib.e_mac_pulse = 6.62607015e-34;
  cfg.quant.variation.seed = (1ULL << 60) + 12345;
  const auto lp = plan::plan_layer(DesignKind::kZeroPadding, small_layer(), cfg);
  const auto back = report::layer_plan_from_json(report::to_json(lp));
  EXPECT_EQ(back.fingerprint(), lp.fingerprint());
  EXPECT_EQ(back.cfg.quant.variation.seed, cfg.quant.variation.seed);
  EXPECT_EQ(back.cfg.calib.t_wd_wire_col2, cfg.calib.t_wd_wire_col2);
}

TEST(PlanSweep, DriverServesPlanKeyedRepeatsFromCache) {
  explore::SweepDriver driver(2);
  std::vector<explore::SweepPoint> grid;
  explore::SweepPoint p;
  p.kind = DesignKind::kRed;
  p.spec = small_layer();
  grid.push_back(p);
  grid.push_back(p);  // duplicate point
  auto q = p;
  q.spec.name = "renamed_but_identical";  // name is presentation-only
  grid.push_back(q);
  const auto outcomes = driver.evaluate(grid);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_FALSE(outcomes[0].from_cache);
  EXPECT_TRUE(outcomes[1].from_cache);
  EXPECT_TRUE(outcomes[2].from_cache);
  EXPECT_EQ(driver.stats().evaluated, 1);
  EXPECT_EQ(outcomes[0].activity, outcomes[1].activity);
}

}  // namespace
}  // namespace red
