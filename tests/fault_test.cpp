// Tests for the red::fault subsystem: deterministic injection, repair
// guarantees (spares, remap, write-verify), campaign oracle equivalence and
// thread invariance, the analytic SNR pruning signal, and the plan/opt
// surfaces (structural keys, JSON round trip, spare-lines axis,
// min_fault_snr constraint).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "red/common/error.h"
#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/fault/campaign.h"
#include "red/fault/inject.h"
#include "red/nn/deconv_reference.h"
#include "red/opt/space.h"
#include "red/plan/plan.h"
#include "red/report/json.h"
#include "red/sim/streaming.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"
#include "red/xbar/crossbar.h"

namespace red::fault {
namespace {

xbar::LogicalXbar make_xbar(std::int64_t rows = 64, std::int64_t cols = 8,
                            std::uint64_t data_seed = 9) {
  Rng rng(data_seed);
  std::vector<std::int32_t> w(static_cast<std::size_t>(rows * cols));
  for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-100, 100));
  return xbar::LogicalXbar(rows, cols, w, xbar::QuantConfig{});
}

bool same_levels(const xbar::LogicalXbar& a, const xbar::LogicalXbar& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int s = 0; s < a.config().slices(); ++s)
    for (std::int64_t r = 0; r < a.rows(); ++r)
      for (std::int64_t c = 0; c < a.cols(); ++c)
        if (a.level(r, c, s) != b.level(r, c, s)) return false;
  return true;
}

FaultModel mixed_model(std::uint64_t seed = 3) {
  FaultModel m;
  m.sa0_rate = 0.01;
  m.sa1_rate = 0.01;
  m.wordline_rate = 0.05;
  m.bitline_rate = 0.05;
  m.drift_sigma = 0.4;
  m.seed = seed;
  return m;
}

TEST(FaultInject, DisabledModelIsBitExactCopy) {
  const auto clean = make_xbar();
  RepairReport rep;
  const auto copy = inject_faults(clean, FaultModel{}, RepairPolicy{}, 0, &rep);
  EXPECT_TRUE(same_levels(clean, copy));
  EXPECT_EQ(weight_error_sq(clean, copy), 0.0);
  EXPECT_EQ(rep.stuck_cells, 0);
  EXPECT_EQ(rep.wordline_faults, 0);
  EXPECT_GT(rep.cells, 0);
}

TEST(FaultInject, DeterministicInSeedAndSeparatedBySalt) {
  const auto clean = make_xbar();
  const auto m = mixed_model();
  const auto a = inject_faults(clean, m, RepairPolicy{}, /*salt=*/7);
  const auto b = inject_faults(clean, m, RepairPolicy{}, /*salt=*/7);
  EXPECT_TRUE(same_levels(a, b));

  // A different salt (another crossbar sharing the model) draws an
  // independent mask, and a different seed does too.
  const auto c = inject_faults(clean, m, RepairPolicy{}, /*salt=*/8);
  EXPECT_FALSE(same_levels(a, c));
  auto m2 = m;
  m2.seed = m.seed + 1;
  const auto d = inject_faults(clean, m2, RepairPolicy{}, /*salt=*/7);
  EXPECT_FALSE(same_levels(a, d));
}

TEST(FaultInject, StuckCountsFollowTheRatesPerPolarity) {
  const auto clean = make_xbar(128, 8);
  FaultModel m;
  m.sa0_rate = 0.2;
  m.seed = 5;
  RepairReport rep;
  const auto faulted = inject_faults(clean, m, RepairPolicy{}, 0, &rep);
  const auto& vs = faulted.variation_stats();
  EXPECT_EQ(vs.sa1_cells, 0);
  EXPECT_EQ(vs.sa0_cells, vs.stuck_cells);
  EXPECT_EQ(rep.stuck_cells, vs.stuck_cells);
  // ~20% of cells, binomial bounds with a wide margin.
  EXPECT_GT(vs.sa0_cells, vs.cells / 10);
  EXPECT_LT(vs.sa0_cells, (3 * vs.cells) / 10);

  FaultModel m1;
  m1.sa1_rate = 0.2;
  m1.seed = 5;
  const auto faulted1 = inject_faults(clean, m1, RepairPolicy{});
  EXPECT_EQ(faulted1.variation_stats().sa0_cells, 0);
  EXPECT_GT(faulted1.variation_stats().sa1_cells, 0);
}

TEST(FaultInject, SparesWithinBudgetFullyHealLineFaults) {
  const auto clean = make_xbar(32, 4);
  FaultModel m;
  m.wordline_rate = 0.1;
  m.bitline_rate = 0.1;
  m.seed = 11;
  RepairReport bare;
  const auto faulted = inject_faults(clean, m, RepairPolicy{}, 0, &bare);
  ASSERT_GT(bare.wordline_faults + bare.bitline_faults, 0);
  EXPECT_FALSE(same_levels(clean, faulted));

  // A spare budget covering every drawn line fault restores the clean array
  // bit-for-bit (line faults are the only fault class in this model).
  RepairPolicy spares;
  spares.spare_rows = static_cast<int>(bare.wordline_faults);
  spares.spare_cols = static_cast<int>(bare.bitline_faults);
  RepairReport rep;
  const auto healed = inject_faults(clean, m, spares, 0, &rep);
  EXPECT_TRUE(same_levels(clean, healed));
  EXPECT_EQ(rep.unrepaired_wordlines, 0);
  EXPECT_EQ(rep.unrepaired_bitlines, 0);
  EXPECT_EQ(rep.spare_rows_used, bare.wordline_faults);
  EXPECT_EQ(rep.spare_cols_used, bare.bitline_faults);
}

TEST(FaultInject, RepairNeverWorseInWeightSpace) {
  const auto clean = make_xbar(48, 6);
  RepairPolicy pol;
  pol.spare_rows = 2;
  pol.spare_cols = 2;
  pol.remap_rows = true;
  pol.verify_retries = 3;
  bool strictly_better = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto m = mixed_model(seed);
    const double bare = weight_error_sq(clean, inject_faults(clean, m, RepairPolicy{}));
    const double repaired = weight_error_sq(clean, inject_faults(clean, m, pol));
    EXPECT_LE(repaired, bare) << "seed " << seed;
    strictly_better |= repaired < bare;
  }
  EXPECT_TRUE(strictly_better);
}

TEST(FaultInject, WriteVerifyRetriesReduceDriftError) {
  const auto clean = make_xbar(64, 8);
  FaultModel m;
  m.drift_sigma = 0.8;
  m.seed = 21;
  double prev = -1.0;
  for (int retries : {0, 2, 6}) {
    RepairPolicy pol;
    pol.verify_retries = retries;
    RepairReport rep;
    const double err = weight_error_sq(clean, inject_faults(clean, m, pol, 0, &rep));
    if (prev >= 0.0) {
      EXPECT_LE(err, prev) << retries << " retries";
    }
    if (retries > 0) {
      EXPECT_GT(rep.retried_cells, 0);
    }
    prev = err;
  }
  // With a generous budget nearly every drifted cell verifies back.
  RepairPolicy big;
  big.verify_retries = 20;
  RepairReport rep;
  const double err = weight_error_sq(clean, inject_faults(clean, m, big, 0, &rep));
  const double bare = weight_error_sq(clean, inject_faults(clean, m, RepairPolicy{}));
  EXPECT_LT(err, bare / 2);
}

TEST(FaultInject, RemapMovesRowsOnlyWhenItHelps) {
  const auto clean = make_xbar(48, 6);
  FaultModel m;
  m.wordline_rate = 0.15;
  m.sa0_rate = 0.02;
  m.seed = 13;
  RepairPolicy remap;
  remap.remap_rows = true;
  RepairReport rep;
  const double repaired = weight_error_sq(clean, inject_faults(clean, m, remap, 0, &rep));
  const double bare = weight_error_sq(clean, inject_faults(clean, m, RepairPolicy{}));
  EXPECT_LE(repaired, bare);
  if (rep.rows_remapped == 0) {
    EXPECT_EQ(repaired, bare);
  }
}

TEST(FaultAnalytic, SnrMonotoneInRatesAndBudgets) {
  const xbar::QuantConfig quant;
  const RepairPolicy none;
  EXPECT_EQ(analytic_snr_db(FaultModel{}, none, quant, 128, 16), 300.0);

  double prev = 301.0;
  for (double r : {0.001, 0.01, 0.1}) {
    FaultModel m;
    m.sa0_rate = m.sa1_rate = r / 2;
    m.wordline_rate = m.bitline_rate = r;
    const double snr = analytic_snr_db(m, none, quant, 128, 16);
    EXPECT_LT(snr, prev) << "rate " << r;
    prev = snr;
  }

  // Budgets help: spares and retries each raise the estimate.
  FaultModel m;
  m.wordline_rate = 0.05;
  m.drift_sigma = 0.5;
  RepairPolicy spares;
  spares.spare_rows = 8;
  EXPECT_GT(analytic_snr_db(m, spares, quant, 128, 16),
            analytic_snr_db(m, none, quant, 128, 16));
  RepairPolicy retries;
  retries.verify_retries = 4;
  EXPECT_GT(analytic_snr_db(m, retries, quant, 128, 16),
            analytic_snr_db(m, none, quant, 128, 16));
}

TEST(FaultPlan, StructuralKeyTracksFaultConfig) {
  const nn::DeconvLayerSpec spec{"fkey", 4, 4, 8, 4, 3, 3, 2, 1, 0};
  const arch::DesignConfig base;
  const auto kind = core::DesignKind::kRed;
  const std::string k0 = plan::structural_key(kind, base, spec);

  auto cfg = base;
  cfg.fault.model.sa0_rate = 0.01;
  EXPECT_NE(plan::structural_key(kind, cfg, spec), k0);
  cfg = base;
  cfg.fault.repair.spare_rows = 2;
  EXPECT_NE(plan::structural_key(kind, cfg, spec), k0);
  cfg = base;
  cfg.quant.variation.sa0_rate = 0.01;
  EXPECT_NE(plan::structural_key(kind, cfg, spec), k0);

  // Spares are priced: provisioned lines add programmed cells to the
  // activity (and through it, area).
  auto spared = base;
  spared.fault.repair.spare_rows = 4;
  spared.fault.repair.spare_cols = 4;
  EXPECT_GT(plan::plan_layer(kind, spec, spared).activity.cells,
            plan::plan_layer(kind, spec, base).activity.cells);
}

TEST(FaultPlan, FaultConfigRoundTripsThroughPlanJson) {
  const nn::DeconvLayerSpec spec{"fjson", 4, 4, 8, 4, 3, 3, 2, 1, 0};
  arch::DesignConfig cfg;
  cfg.fault.model.sa0_rate = 0.01;
  cfg.fault.model.sa1_rate = 0.02;
  cfg.fault.model.wordline_rate = 0.03;
  cfg.fault.model.bitline_rate = 0.04;
  cfg.fault.model.drift_sigma = 0.5;
  cfg.fault.model.seed = 42;
  cfg.fault.repair.spare_rows = 3;
  cfg.fault.repair.spare_cols = 1;
  cfg.fault.repair.remap_rows = true;
  cfg.fault.repair.verify_retries = 5;
  cfg.quant.variation.sa0_rate = 0.001;
  cfg.quant.variation.sa1_rate = 0.002;

  const auto lp = plan::plan_layer(core::DesignKind::kRed, spec, cfg);
  const auto round = report::layer_plan_from_json(report::to_json(lp));
  EXPECT_EQ(round.key, lp.key);
  EXPECT_EQ(round.cfg.fault.model.sa1_rate, cfg.fault.model.sa1_rate);
  EXPECT_EQ(round.cfg.fault.model.seed, cfg.fault.model.seed);
  EXPECT_EQ(round.cfg.fault.repair.spare_rows, cfg.fault.repair.spare_rows);
  EXPECT_EQ(round.cfg.fault.repair.remap_rows, cfg.fault.repair.remap_rows);
  EXPECT_EQ(round.cfg.fault.repair.verify_retries, cfg.fault.repair.verify_retries);
  EXPECT_EQ(round.cfg.quant.variation.sa0_rate, cfg.quant.variation.sa0_rate);
}

class FaultCampaignTest : public ::testing::Test {
 protected:
  const nn::DeconvLayerSpec spec_{"fcamp", 4, 4, 8, 4, 3, 3, 2, 1, 0};
  Tensor<std::int32_t> input_, kernel_;

  void SetUp() override {
    Rng rng(17);
    input_ = workloads::make_input(spec_, rng, 1, 7);
    kernel_ = workloads::make_kernel(spec_, rng, -7, 7);
  }

  std::vector<FaultModel> models() const {
    FaultModel hot = mixed_model();
    return {FaultModel{}, hot};
  }

  RepairPolicy policy() const {
    RepairPolicy pol;
    pol.spare_rows = 2;
    pol.spare_cols = 2;
    pol.remap_rows = true;
    pol.verify_retries = 2;
    return pol;
  }
};

TEST_F(FaultCampaignTest, ZeroRateIsOracleExactAndRepairNeverHurts) {
  for (auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                    core::DesignKind::kRed}) {
    FaultCampaignOptions opts;
    opts.trials = 2;
    const auto points = run_fault_campaign(kind, arch::DesignConfig{}, models(), policy(),
                                           spec_, input_, kernel_, opts);
    ASSERT_EQ(points.size(), 2u);
    for (const auto& t : points[0].trials) {
      EXPECT_TRUE(t.unrepaired.score.exact());
      EXPECT_TRUE(t.repaired.score.exact());
      EXPECT_EQ(t.unrepaired.score.snr_db, 300.0);
    }
    for (const auto& p : points) EXPECT_TRUE(p.repaired_not_worse());
    // The hot point actually degrades the bare arm (the sweep is not vacuous).
    EXPECT_GT(points[1].mean_mse(false), 0.0);
  }
}

TEST_F(FaultCampaignTest, ThreadCountDoesNotChangeAnyScore) {
  FaultCampaignOptions serial;
  serial.trials = 3;
  FaultCampaignOptions wide = serial;
  wide.threads = 4;
  const auto a = run_fault_campaign(core::DesignKind::kRed, arch::DesignConfig{}, models(),
                                    policy(), spec_, input_, kernel_, serial);
  const auto b = run_fault_campaign(core::DesignKind::kRed, arch::DesignConfig{}, models(),
                                    policy(), spec_, input_, kernel_, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].trials.size(), b[i].trials.size());
    for (std::size_t t = 0; t < a[i].trials.size(); ++t) {
      EXPECT_EQ(a[i].trials[t].unrepaired.score.mse, b[i].trials[t].unrepaired.score.mse);
      EXPECT_EQ(a[i].trials[t].repaired.score.mse, b[i].trials[t].repaired.score.mse);
      EXPECT_EQ(a[i].trials[t].repaired.score.bit_errors,
                b[i].trials[t].repaired.score.bit_errors);
    }
  }
}

TEST_F(FaultCampaignTest, TrialsDrawIndependentMasks) {
  FaultCampaignOptions opts;
  opts.trials = 3;
  const auto points = run_fault_campaign(core::DesignKind::kRed, arch::DesignConfig{},
                                         {mixed_model()}, policy(), spec_, input_, kernel_,
                                         opts);
  const auto& trials = points[0].trials;
  bool any_differs = false;
  for (std::size_t t = 1; t < trials.size(); ++t)
    any_differs |= trials[t].unrepaired.score.mse != trials[0].unrepaired.score.mse;
  EXPECT_TRUE(any_differs);
}

TEST(FaultStreaming, FaultedExecutorIsDeterministicAndZeroModelExact) {
  const auto stack = workloads::sngan_generator(64);
  const auto kernels = workloads::make_stack_kernels(stack, 11);
  const auto images = workloads::make_input_batch(stack[0], 2, 21);
  for (auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                    core::DesignKind::kRed}) {
    const sim::StreamingExecutor clean(kind, arch::DesignConfig{}, stack, kernels);
    sim::StreamingOptions run_opts;
    run_opts.check = false;
    const auto oracle = clean.stream_layer_major(images, run_opts);

    // Zero model: the faulted sibling is the oracle, bit for bit.
    const auto exact = clean.faulted(FaultModel{}, RepairPolicy{});
    const auto exact_out = exact->stream_layer_major(images, run_opts);
    for (std::size_t k = 0; k < images.size(); ++k)
      EXPECT_EQ(first_mismatch(oracle.images[k].output, exact_out.images[k].output), "")
          << clean.design_name();

    // A real model: deterministic across calls, per-stage reports populated,
    // stacked stages draw independent masks (different stage salts).
    FaultModel m;
    m.sa0_rate = m.sa1_rate = 0.02;
    m.seed = 9;
    std::vector<RepairReport> reports;
    const auto f1 = clean.faulted(m, RepairPolicy{}, &reports);
    const auto f2 = clean.faulted(m, RepairPolicy{});
    const auto o1 = f1->stream_layer_major(images, run_opts);
    const auto o2 = f2->stream_layer_major(images, run_opts);
    ASSERT_EQ(reports.size(), stack.size());
    for (const auto& rep : reports) EXPECT_GT(rep.stuck_cells, 0) << clean.design_name();
    for (std::size_t k = 0; k < images.size(); ++k)
      EXPECT_EQ(first_mismatch(o1.images[k].output, o2.images[k].output), "")
          << clean.design_name();
  }
}

TEST(FaultStreaming, StackCampaignHonorsTheSameGates) {
  // Line faults only, with a spare budget that covers every drawn fault:
  // the repaired arm must restore the fault-free oracle bit-for-bit while
  // the bare arm degrades. (A mixed model with row remapping is only
  // guaranteed better in weight space, not in end-to-end output MSE — the
  // inter-stage requantization is nonlinear — so the hard stack gate uses
  // the provable repair.)
  const auto stack = workloads::sngan_generator(64);
  const auto kernels = workloads::make_stack_kernels(stack, 11);
  const auto images = workloads::make_input_batch(stack[0], 2, 21);
  FaultModel hot;
  hot.wordline_rate = 0.05;
  hot.bitline_rate = 0.05;
  RepairPolicy pol;
  pol.spare_rows = 64;
  pol.spare_cols = 64;
  FaultCampaignOptions opts;
  opts.trials = 2;
  for (auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                    core::DesignKind::kRed}) {
    const auto name = core::kind_to_name(kind);
    const auto points = run_fault_campaign_stack(kind, arch::DesignConfig{},
                                                 {FaultModel{}, hot}, pol, stack, kernels,
                                                 images, opts);
    ASSERT_EQ(points.size(), 2u);
    for (const auto& t : points[0].trials) {
      EXPECT_TRUE(t.unrepaired.score.exact()) << name;
      EXPECT_TRUE(t.repaired.score.exact()) << name;
    }
    for (const auto& t : points[1].trials) {
      EXPECT_GT(t.unrepaired.repair.wordline_faults + t.unrepaired.repair.bitline_faults, 0)
          << name;
      EXPECT_EQ(t.repaired.repair.unrepaired_wordlines, 0) << name;
      EXPECT_EQ(t.repaired.repair.unrepaired_bitlines, 0) << name;
      EXPECT_TRUE(t.repaired.score.exact()) << name;
    }
    for (const auto& p : points) EXPECT_TRUE(p.repaired_not_worse()) << name;
    EXPECT_GT(points[1].mean_mse(false), 0.0) << name;
  }
}

TEST(FaultOpt, SpareLinesAxisMaterializesIntoRepairBudget) {
  const std::vector<nn::DeconvLayerSpec> stack{{"fopt", 4, 4, 8, 4, 3, 3, 2, 1, 0}};
  opt::SearchSpace space(stack, core::DesignKind::kRed, arch::DesignConfig{});
  space.add_axis({opt::AxisField::kSpareLines, {0, 4}});
  ASSERT_EQ(space.size(), 2);
  const auto p0 = space.materialize(space.decode(0));
  const auto p1 = space.materialize(space.decode(1));
  EXPECT_EQ(p0.cfg.fault.repair.spare_rows, 0);
  EXPECT_EQ(p1.cfg.fault.repair.spare_rows, 4);
  EXPECT_EQ(p1.cfg.fault.repair.spare_cols, 4);
  EXPECT_EQ(opt::axis_field_from_name("spare-lines"), opt::AxisField::kSpareLines);
  // The axis is structural: the two candidates compile to different keys.
  EXPECT_NE(plan::structural_key(p0.kind, p0.cfg, stack[0]),
            plan::structural_key(p1.kind, p1.cfg, stack[0]));
}

TEST(FaultOpt, MinFaultSnrConstraintPrunesHarshEnvironments) {
  const std::vector<nn::DeconvLayerSpec> stack{{"fsnr", 4, 4, 8, 4, 3, 3, 2, 1, 0}};
  arch::DesignConfig harsh;
  harsh.fault.model.sa0_rate = harsh.fault.model.sa1_rate = 0.05;
  harsh.fault.model.wordline_rate = 0.1;
  const opt::SearchSpace space(stack, core::DesignKind::kRed, harsh);
  const auto cand = space.decode(0);
  const auto point = space.materialize(cand);
  const auto plan = plan::plan_stack(point.kind, stack, point.cfg);
  const opt::CandidateView view{space, cand, point, plan};

  const auto lenient = opt::min_fault_snr(-200.0);
  const auto strict = opt::min_fault_snr(100.0);
  EXPECT_TRUE(lenient.allow(view));
  EXPECT_FALSE(strict.allow(view));
  // The threshold is part of the constraint identity (checkpoint fingerprint).
  EXPECT_NE(lenient.name, strict.name);
}

}  // namespace
}  // namespace red::fault
