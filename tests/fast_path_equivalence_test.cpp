// Equivalence gate for the perf subsystem: every fast path (layout-optimized
// bit-accurate kernel, workspace overloads, mvm_batch, threaded design runs,
// parallel network simulation) must produce bit-identical outputs AND
// bit-identical activity stats vs the untouched reference implementations,
// across QuantConfig, variation, and ADC-clip configurations.
#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "red/common/error.h"
#include "red/common/math_util.h"
#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/fault/inject.h"
#include "red/perf/mvm_kernel.h"
#include "red/perf/thread_pool.h"
#include "red/perf/workspace.h"
#include "red/sim/engine.h"
#include "red/sim/pipeline.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"
#include "red/xbar/crossbar.h"

namespace red {
namespace {

using xbar::AdcMode;
using xbar::LogicalXbar;
using xbar::MvmStats;
using xbar::QuantConfig;

std::vector<std::int32_t> random_weights(Rng& rng, std::int64_t n, const QuantConfig& q) {
  const std::int32_t half = q.weight_offset();
  std::vector<std::int32_t> w(static_cast<std::size_t>(n));
  for (auto& v : w) v = static_cast<std::int32_t>(rng.uniform_int(-half, half - 1));
  return w;
}

std::vector<std::int32_t> random_input(Rng& rng, std::int64_t n, const QuantConfig& q,
                                       bool include_zeros) {
  // Multi-bit DAC streaming requires non-negative activations.
  const std::int64_t lo = q.dac_bits == 1 ? -(std::int64_t{1} << (q.abits - 1)) : 0;
  const std::int64_t hi = q.dac_bits == 1 ? (std::int64_t{1} << (q.abits - 1)) - 1
                                          : (std::int64_t{1} << q.abits) - 1;
  std::vector<std::int32_t> in(static_cast<std::size_t>(n));
  for (auto& v : in) {
    v = static_cast<std::int32_t>(rng.uniform_int(lo, hi));
    if (include_zeros && rng.bernoulli(0.25)) v = 0;
  }
  return in;
}

/// The configuration matrix the kernels are gated over.
std::vector<QuantConfig> config_matrix() {
  std::vector<QuantConfig> configs;
  configs.push_back(QuantConfig{});  // defaults: 8/8, 2-bit cells, ideal ADC
  {
    QuantConfig q;
    q.wbits = 6;
    q.abits = 5;
    q.cell_bits = 3;
    configs.push_back(q);
  }
  {
    QuantConfig q;  // clipped ADC tight enough to actually saturate
    q.adc.mode = AdcMode::kClipped;
    q.adc.bits = 4;
    configs.push_back(q);
  }
  {
    QuantConfig q;  // clipped but roomy (clips rare/absent)
    q.adc.mode = AdcMode::kClipped;
    q.adc.bits = 12;
    configs.push_back(q);
  }
  {
    QuantConfig q;  // multi-bit DAC streaming
    q.dac_bits = 2;
    configs.push_back(q);
  }
  {
    QuantConfig q;  // multi-bit DAC + clipped ADC
    q.dac_bits = 4;
    q.adc.mode = AdcMode::kClipped;
    q.adc.bits = 5;
    configs.push_back(q);
  }
  {
    QuantConfig q;  // device variation (program-time perturbation)
    q.variation.level_sigma = 0.3;
    q.variation.stuck_at_rate = 0.02;
    q.variation.seed = 7;
    configs.push_back(q);
  }
  {
    QuantConfig q;  // variation + clipped ADC
    q.variation.level_sigma = 0.2;
    q.variation.seed = 11;
    q.adc.mode = AdcMode::kClipped;
    q.adc.bits = 5;
    configs.push_back(q);
  }
  return configs;
}

TEST(FastPathEquivalence, BitAccurateMatchesReferenceAcrossConfigs) {
  Rng rng(1234);
  int clipped_cases = 0;
  for (const auto& q : config_matrix()) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::int64_t rows = rng.uniform_int(1, 96);
      const std::int64_t cols = rng.uniform_int(1, 24);
      const LogicalXbar xb(rows, cols, random_weights(rng, rows * cols, q), q);
      const auto in = random_input(rng, rows, q, /*include_zeros=*/true);

      MvmStats ref_stats, fast_stats, ws_stats;
      const auto ref = xb.mvm_bit_accurate_reference(in, &ref_stats);
      const auto fast = xb.mvm_bit_accurate(in, &fast_stats);
      EXPECT_EQ(fast, ref);
      EXPECT_EQ(fast_stats, ref_stats);

      perf::MvmWorkspace ws;
      const auto span = xb.mvm_bit_accurate(in, ws, &ws_stats);
      EXPECT_EQ(std::vector<std::int64_t>(span.begin(), span.end()), ref);
      EXPECT_EQ(ws_stats, ref_stats);

      if (ref_stats.adc_clips > 0) ++clipped_cases;
    }
  }
  // The matrix must actually exercise the saturating-ADC kernel.
  EXPECT_GT(clipped_cases, 0);
}

TEST(FastPathEquivalence, WorkspaceMvmMatchesLegacyMvm) {
  Rng rng(99);
  for (const auto& q : config_matrix()) {
    const std::int64_t rows = rng.uniform_int(1, 64);
    const std::int64_t cols = rng.uniform_int(1, 32);
    const LogicalXbar xb(rows, cols, random_weights(rng, rows * cols, q), q);
    const auto in = random_input(rng, rows, q, true);

    MvmStats legacy_stats, ws_stats;
    const auto legacy = xb.mvm(in, &legacy_stats);
    perf::MvmWorkspace ws;
    const auto span = xb.mvm(in, ws, &ws_stats);
    EXPECT_EQ(std::vector<std::int64_t>(span.begin(), span.end()), legacy);
    EXPECT_EQ(ws_stats, legacy_stats);
  }
}

TEST(FastPathEquivalence, BatchMatchesSingleCalls) {
  Rng rng(4321);
  for (const auto& q : config_matrix()) {
    const std::int64_t rows = rng.uniform_int(1, 48);
    const std::int64_t cols = rng.uniform_int(1, 16);
    const std::int64_t batch = rng.uniform_int(1, 9);
    const LogicalXbar xb(rows, cols, random_weights(rng, rows * cols, q), q);
    const auto inputs = random_input(rng, batch * rows, q, true);

    for (const bool bit_accurate : {false, true}) {
      MvmStats single_stats, batch_stats;
      std::vector<std::int64_t> expected;
      for (std::int64_t v = 0; v < batch; ++v) {
        const std::span<const std::int32_t> one(inputs.data() + v * rows,
                                                static_cast<std::size_t>(rows));
        const auto r = bit_accurate ? xb.mvm_bit_accurate(one, &single_stats)
                                    : xb.mvm(one, &single_stats);
        expected.insert(expected.end(), r.begin(), r.end());
      }
      perf::MvmWorkspace ws;
      const auto got = xb.mvm_batch(inputs, batch, bit_accurate, ws, &batch_stats);
      EXPECT_EQ(std::vector<std::int64_t>(got.begin(), got.end()), expected);
      EXPECT_EQ(batch_stats, single_stats);
    }
  }
}

TEST(FastPathEquivalence, LosslessAdcBitsCacheMatchesBruteForce) {
  Rng rng(55);
  for (const auto& q : config_matrix()) {
    const std::int64_t rows = rng.uniform_int(1, 40);
    const std::int64_t cols = rng.uniform_int(1, 12);
    const LogicalXbar xb(rows, cols, random_weights(rng, rows * cols, q), q);
    // Brute-force worst-case one-plane column sum from the level accessors.
    std::int64_t worst = 0;
    for (std::int64_t c = 0; c < cols; ++c)
      for (int s = 0; s < q.slices(); ++s) {
        std::int64_t sum = 0;
        for (std::int64_t r = 0; r < rows; ++r) sum += xb.level(r, c, s);
        worst = std::max(worst, sum);
      }
    const int expected = worst == 0 ? 1 : ilog2_ceil(worst + 1);
    EXPECT_EQ(xb.lossless_adc_bits(), expected);
  }
}

/// Restores the dispatch tier a test temporarily pins (RAII so an ASSERT
/// failure cannot leak a forced tier into later tests).
class ScopedIsa {
 public:
  ScopedIsa() : saved_(perf::mvm_active_isa()) {}
  ~ScopedIsa() { perf::set_mvm_isa(saved_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  perf::MvmIsa saved_;
};

constexpr perf::MvmIsa kAllIsas[] = {perf::MvmIsa::kScalar, perf::MvmIsa::kPortable,
                                     perf::MvmIsa::kPopcnt, perf::MvmIsa::kAvx2,
                                     perf::MvmIsa::kAvx512};

/// Packed kernels vs the scalar reference over the shapes that stress the
/// 64-bit word packing: rows around and across word boundaries, a single
/// column, all-zero and fully dense inputs — per ADC regime, per dispatch
/// tier (tiers above the machine's clamp down and re-test the detected one).
TEST(FastPathEquivalence, PackedKernelsMatchReferenceOnAwkwardShapes) {
  const ScopedIsa restore;
  Rng rng(8080);
  for (const std::int64_t rows : {std::int64_t{1}, std::int64_t{63}, std::int64_t{64},
                                  std::int64_t{65}, std::int64_t{127}, std::int64_t{129}}) {
    for (const std::int64_t cols : {std::int64_t{1}, std::int64_t{7}}) {
      for (const auto& q : config_matrix()) {
        const LogicalXbar xb(rows, cols, random_weights(rng, rows * cols, q), q);
        const std::int32_t dense = q.dac_bits == 1
                                       ? -(std::int32_t{1} << (q.abits - 1))  // widest magnitude
                                       : (std::int32_t{1} << q.abits) - 1;
        const std::vector<std::vector<std::int32_t>> inputs = {
            random_input(rng, rows, q, /*include_zeros=*/true),
            std::vector<std::int32_t>(static_cast<std::size_t>(rows), 0),     // all-zero planes
            std::vector<std::int32_t>(static_cast<std::size_t>(rows), dense)  // all planes set
        };
        for (const auto& in : inputs) {
          MvmStats ref_stats;
          const auto ref = xb.mvm_bit_accurate_reference(in, &ref_stats);
          perf::set_mvm_isa(perf::MvmIsa::kScalar);
          MvmStats exact_stats;
          const auto exact = xb.mvm(in, &exact_stats);
          for (const auto isa : kAllIsas) {
            perf::set_mvm_isa(isa);
            const char* name = perf::mvm_isa_name(perf::mvm_active_isa());
            perf::MvmWorkspace ws;
            MvmStats got_stats;
            const auto got = xb.mvm_bit_accurate(in, ws, &got_stats);
            EXPECT_EQ(std::vector<std::int64_t>(got.begin(), got.end()), ref)
                << name << " rows=" << rows << " cols=" << cols;
            EXPECT_EQ(got_stats, ref_stats) << name << " rows=" << rows << " cols=" << cols;

            MvmStats got_exact_stats;
            const auto got_exact = xb.mvm(in, ws, &got_exact_stats);
            EXPECT_EQ(std::vector<std::int64_t>(got_exact.begin(), got_exact.end()), exact)
                << name << " rows=" << rows << " cols=" << cols;
            EXPECT_EQ(got_exact_stats, exact_stats) << name;
          }
        }
      }
    }
  }
}

/// RED programmed runs encode each input pixel once at bind time and OR its
/// planes into every cycle at row offset sc_index * C. Channel counts around
/// the 64-bit word put those offsets on, across and exactly at word
/// boundaries; the programmed run must equal RedDesign::run (scalar-tier
/// oracle) in output and full RunStats for every fold/lookahead schedule,
/// ADC regime, DAC width, lane budget and dispatch tier.
TEST(FastPathEquivalence, PrePackedRedRunsMatchDesignRunOnWordStraddlingShapes) {
  const ScopedIsa restore;
  std::vector<QuantConfig> quants;
  quants.push_back(QuantConfig{});  // dac_bits 1, negative activations, ideal ADC
  {
    QuantConfig q;  // clipped ADC tight enough to saturate
    q.adc.mode = AdcMode::kClipped;
    q.adc.bits = 4;
    quants.push_back(q);
  }
  {
    QuantConfig q;  // 2-bit DAC digits (non-negative activations)
    q.dac_bits = 2;
    quants.push_back(q);
  }
  {
    QuantConfig q;  // 2-bit DAC + clipped ADC
    q.dac_bits = 2;
    q.adc.mode = AdcMode::kClipped;
    q.adc.bits = 5;
    quants.push_back(q);
  }
  struct Sched {
    int fold, h, d;
  };
  Rng rng(1414);
  int clipped_runs = 0;
  for (const int c : {1, 21, 63, 64, 65, 130}) {
    // 5x5 / stride 2: mode groups of 9, 6, 6 and 4 sub-crossbars.
    const nn::DeconvLayerSpec spec{"straddle", 2, 3, c, 3, 5, 5, 2, 1, 0};
    for (const auto& q : quants) {
      const std::int32_t lo = q.dac_bits == 1 ? -(1 << (q.abits - 1)) : 0;
      const std::int32_t hi = q.dac_bits == 1 ? (1 << (q.abits - 1)) - 1 : (1 << q.abits) - 1;
      auto input = workloads::make_input(spec, rng, lo, hi);
      for (std::int64_t i = 0; i < input.size(); i += 4) input.data()[i] = 0;
      const auto kernel =
          workloads::make_kernel(spec, rng, -q.weight_offset(), q.weight_offset() - 1);
      for (const Sched sched : {Sched{1, 0, 0}, Sched{2, 0, 0}, Sched{4, 0, 0}, Sched{1, 1, 1},
                                Sched{2, 1, 1}, Sched{4, 1, 1}}) {
        for (const bool bit_accurate : {false, true}) {
          arch::DesignConfig cfg;
          cfg.quant = q;
          cfg.bit_accurate = bit_accurate;
          cfg.red_fold = sched.fold;
          cfg.lookahead_h = sched.h;
          cfg.lookaside_d = sched.d;
          const auto design = core::make_design(core::DesignKind::kRed, cfg);
          perf::set_mvm_isa(perf::MvmIsa::kScalar);
          arch::RunStats ref_stats;
          const auto ref = design->run(spec, input, kernel, &ref_stats);
          if (ref_stats.mvm.adc_clips > 0) ++clipped_runs;
          for (const int lanes : {1, 3}) {
            // A fresh program per budget, so its first run binds on `lanes`.
            const auto programmed = design->program(spec, kernel);
            for (const auto isa : kAllIsas) {
              perf::set_mvm_isa(isa);
              arch::RunStats got_stats;
              const auto got = programmed->run(input, &got_stats, lanes);
              const std::string where = std::string(perf::mvm_isa_name(isa)) +
                                        " C=" + std::to_string(c) + " dac=" +
                                        std::to_string(q.dac_bits) + " fold=" +
                                        std::to_string(sched.fold) + " la=" +
                                        std::to_string(sched.h) + " bit_accurate=" +
                                        std::to_string(bit_accurate) +
                                        " lanes=" + std::to_string(lanes);
              EXPECT_EQ(got, ref) << where;
              EXPECT_EQ(got_stats, ref_stats) << where;
            }
          }
        }
      }
    }
  }
  // The matrix must actually exercise the saturating-ADC kernel.
  EXPECT_GT(clipped_runs, 0);
}

/// The crossbars the ideal-ADC GEMV is gated over for one config: a clean
/// one, a FastDeltaTag sibling (noise plus stuck-at-0/max cells) and an
/// inject_faults sibling (stuck cells plus dead word- and bitlines). Both
/// siblings derive their stored weights from patched or rebuilt levels.
std::vector<LogicalXbar> gemv_xbars(Rng& rng, std::int64_t rows, std::int64_t cols,
                                    const QuantConfig& q) {
  std::vector<LogicalXbar> xbs;
  xbs.emplace_back(rows, cols, random_weights(rng, rows * cols, q), q);
  xbar::VariationModel var;
  var.level_sigma = 0.3;
  var.sa0_rate = 0.03;
  var.sa1_rate = 0.08;
  var.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  xbs.emplace_back(xbs.front(), var, xbar::FastDeltaTag{});
  fault::FaultModel faults;
  faults.sa0_rate = 0.03;
  faults.sa1_rate = 0.08;
  faults.wordline_rate = 0.02;
  faults.bitline_rate = 0.02;
  faults.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  xbs.push_back(fault::inject_faults(xbs.front(), faults, fault::RepairPolicy{}, 7));
  return xbs;
}

/// Ideal-ADC MVMs run an integer GEMV over stored_weights() on every tier
/// above kScalar. Against mvm_bit_accurate_reference() and the kScalar
/// oracle, in outputs and MvmStats: mvm_bit_accurate(), mvm(), mvm_batch()
/// both ways, and a BlockMvm assembling the same MVM from two row blocks
/// split off a 64-row word boundary. Widths cover the row-vectorized forms
/// (cols below one vector), masked column tails and multi-tile sweeps;
/// 16-bit weights and activations with 1-bit (negative) and 2-bit DACs and
/// 3-bit cells put stuck-at-max levels above the wbits range.
TEST(FastPathEquivalence, GemvMatchesReferenceAndScalarOnEveryTier) {
  const ScopedIsa restore;
  std::vector<QuantConfig> quants;
  for (const int dac_bits : {1, 2}) {
    QuantConfig q;
    q.wbits = 16;
    q.abits = 16;
    q.cell_bits = 3;
    q.dac_bits = dac_bits;
    quants.push_back(q);
  }
  {
    QuantConfig q;  // 7-bit weights over 4 two-bit slices
    q.wbits = 7;
    q.abits = 5;
    quants.push_back(q);
  }
  Rng rng(15015);
  int out_of_range = 0;
  for (const auto& q : quants) {
    const std::int32_t half = q.weight_offset();
    for (const std::int64_t rows : {std::int64_t{1}, std::int64_t{63}, std::int64_t{65},
                                    std::int64_t{130}}) {
      for (const std::int64_t cols : {1, 3, 7, 8, 21, 64, 256}) {
        for (const auto& xb : gemv_xbars(rng, rows, cols, q)) {
          for (const auto w : xb.stored_weights()) out_of_range += (w < -half || w >= half);
          const auto in = random_input(rng, rows, q, /*include_zeros=*/true);
          const auto in2 = random_input(rng, rows, q, /*include_zeros=*/false);
          std::vector<std::int32_t> both(in);
          both.insert(both.end(), in2.begin(), in2.end());
          MvmStats ref_stats, ref_both_stats;
          const auto ref = xb.mvm_bit_accurate_reference(in, &ref_stats);
          auto ref_both = xb.mvm_bit_accurate_reference(in, &ref_both_stats);
          const auto ref2 = xb.mvm_bit_accurate_reference(in2, &ref_both_stats);
          ref_both.insert(ref_both.end(), ref2.begin(), ref2.end());
          perf::set_mvm_isa(perf::MvmIsa::kScalar);
          MvmStats scalar_stats;
          EXPECT_EQ(xb.mvm(in, &scalar_stats), ref);
          EXPECT_EQ(scalar_stats, ref_stats);

          for (const auto isa : kAllIsas) {
            perf::set_mvm_isa(isa);
            const std::string where = std::string(perf::mvm_isa_name(perf::mvm_active_isa())) +
                                      " wbits=" + std::to_string(q.wbits) +
                                      " dac=" + std::to_string(q.dac_bits) +
                                      " rows=" + std::to_string(rows) +
                                      " cols=" + std::to_string(cols);
            perf::MvmWorkspace ws;
            const auto as_vec = [](std::span<const std::int64_t> v) {
              return std::vector<std::int64_t>(v.begin(), v.end());
            };
            MvmStats ba_stats, exact_stats;
            EXPECT_EQ(as_vec(xb.mvm_bit_accurate(in, ws, &ba_stats)), ref) << where;
            EXPECT_EQ(ba_stats, ref_stats) << where;
            EXPECT_EQ(as_vec(xb.mvm(in, ws, &exact_stats)), ref) << where;
            EXPECT_EQ(exact_stats, ref_stats) << where;
            for (const bool bit_accurate : {false, true}) {
              MvmStats batch_stats;
              EXPECT_EQ(as_vec(xb.mvm_batch(both, 2, bit_accurate, ws, &batch_stats)), ref_both)
                  << where << " bit_accurate=" << bit_accurate;
              EXPECT_EQ(batch_stats, ref_both_stats) << where;
            }

            const std::int64_t split = rows / 2;
            const std::span<const std::int32_t> whole(in);
            std::vector<std::int64_t> blocks(static_cast<std::size_t>(cols), 0);
            MvmStats block_stats;
            {
              perf::BlockMvm mvm(xb, &block_stats);
              auto sum = perf::summarize_input(whole.subspan(0, static_cast<std::size_t>(split)), q);
              sum += perf::summarize_input(whole.subspan(static_cast<std::size_t>(split)), q);
              mvm.add(split, whole.subspan(static_cast<std::size_t>(split)), blocks.data());
              mvm.add(0, whole.subspan(0, static_cast<std::size_t>(split)), blocks.data());
              mvm.end_call(sum);
            }
            EXPECT_EQ(blocks, ref) << where << " (row blocks)";
            EXPECT_EQ(block_stats, ref_stats) << where << " (row blocks)";
          }
        }
      }
    }
  }
  // Faulted and perturbed siblings must reach levels the wbits range lacks.
  EXPECT_GT(out_of_range, 0);
}

/// Ideal-ADC RED programmed runs add one C x M block GEMV per active
/// sub-crossbar straight from the bound pixels. Against RedDesign::run
/// (scalar-tier oracle) in output and full RunStats, for M below, at and
/// across one vector, every fold/lookahead schedule, both MVM modes, lane
/// budgets 1 and 3, and every dispatch tier.
TEST(FastPathEquivalence, IdealRedBlockGemvRunsMatchDesignRun) {
  const ScopedIsa restore;
  struct Sched {
    int fold, h, d;
  };
  Rng rng(2121);
  for (const int m : {1, 3, 21}) {
    for (const int c : {5, 21}) {
      // 5x5 / stride 2: mode groups of 9, 6, 6 and 4 sub-crossbars.
      const nn::DeconvLayerSpec spec{"block", 3, 2, c, m, 5, 5, 2, 1, 0};
      auto input = workloads::make_input(spec, rng, -128, 127);
      for (std::int64_t i = 0; i < input.size(); i += 3) input.data()[i] = 0;
      const auto kernel = workloads::make_kernel(spec, rng, -128, 127);
      for (const Sched sched : {Sched{1, 0, 0}, Sched{2, 0, 0}, Sched{4, 0, 0}, Sched{1, 1, 1},
                                Sched{2, 1, 1}, Sched{4, 1, 1}}) {
        for (const bool bit_accurate : {false, true}) {
          arch::DesignConfig cfg;
          cfg.bit_accurate = bit_accurate;
          cfg.red_fold = sched.fold;
          cfg.lookahead_h = sched.h;
          cfg.lookaside_d = sched.d;
          const auto design = core::make_design(core::DesignKind::kRed, cfg);
          perf::set_mvm_isa(perf::MvmIsa::kScalar);
          arch::RunStats ref_stats;
          const auto ref = design->run(spec, input, kernel, &ref_stats);
          for (const int lanes : {1, 3}) {
            const auto programmed = design->program(spec, kernel);
            for (const auto isa : kAllIsas) {
              perf::set_mvm_isa(isa);
              arch::RunStats got_stats;
              const auto got = programmed->run(input, &got_stats, lanes);
              const std::string where = std::string(perf::mvm_isa_name(isa)) +
                                        " M=" + std::to_string(m) + " C=" + std::to_string(c) +
                                        " fold=" + std::to_string(sched.fold) +
                                        " la=" + std::to_string(sched.h) +
                                        " bit_accurate=" + std::to_string(bit_accurate) +
                                        " lanes=" + std::to_string(lanes);
              EXPECT_EQ(got, ref) << where;
              EXPECT_EQ(got_stats, ref_stats) << where;
            }
          }
        }
      }
    }
  }
}

/// Packed weight planes are built, and FastDeltaTag-patched, only for
/// clipped ADCs, where the popcount kernel still reads them: a clipped
/// crossbar and its perturbed sibling (noise plus stuck-at-0/max) must
/// still match the reference in outputs and MvmStats on every tier. The
/// reference reads the cell levels, so a stale plane shows as a mismatch.
TEST(FastPathEquivalence, ClippedAdcCrossbarsStillBuildAndPatchPackedPlanes) {
  const ScopedIsa restore;
  QuantConfig q;
  q.adc.mode = AdcMode::kClipped;
  q.adc.bits = 5;
  Rng rng(3131);
  int clipped = 0;
  for (const std::int64_t rows : {std::int64_t{63}, std::int64_t{130}}) {
    const LogicalXbar clean(rows, 21, random_weights(rng, rows * 21, q), q);
    xbar::VariationModel var;
    var.level_sigma = 0.4;
    var.sa0_rate = 0.05;
    var.sa1_rate = 0.1;
    var.seed = 99;
    const LogicalXbar sibling(clean, var, xbar::FastDeltaTag{});
    ASSERT_GT(sibling.variation_stats().perturbed_cells, 0);
    for (const LogicalXbar* xb : {&clean, &sibling}) {
      for (int trial = 0; trial < 3; ++trial) {
        const auto in = random_input(rng, rows, q, /*include_zeros=*/true);
        MvmStats ref_stats;
        const auto ref = xb->mvm_bit_accurate_reference(in, &ref_stats);
        clipped += ref_stats.adc_clips > 0;
        for (const auto isa : kAllIsas) {
          perf::set_mvm_isa(isa);
          perf::MvmWorkspace ws;
          MvmStats got_stats;
          const auto got = xb->mvm_bit_accurate(in, ws, &got_stats);
          EXPECT_EQ(std::vector<std::int64_t>(got.begin(), got.end()), ref)
              << perf::mvm_isa_name(isa) << " rows=" << rows
              << (xb == &sibling ? " sibling" : " clean");
          EXPECT_EQ(got_stats, ref_stats) << perf::mvm_isa_name(isa);
        }
      }
    }
  }
  EXPECT_GT(clipped, 0);
}

/// Range checking moved from every MVM call into RedProgram::bind: an
/// out-of-range activation must still throw ContractViolation, and the
/// failed bind must leave no half-built binding behind.
TEST(FastPathEquivalence, PrePackedBindStillRangeChecksAndRecovers) {
  const nn::DeconvLayerSpec spec{"range", 3, 3, 21, 2, 4, 4, 2, 1, 0};
  Rng rng(31);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  const auto good = workloads::make_input(spec, rng, -5, 5);
  for (const int dac_bits : {1, 2}) {
    arch::DesignConfig cfg;
    cfg.quant.dac_bits = dac_bits;
    const auto design = core::make_design(core::DesignKind::kRed, cfg);
    const auto programmed = design->program(spec, kernel);
    // Past the abits range for either DAC; negative also breaks 2-bit digits.
    for (const std::int32_t bad_value : {256, dac_bits == 1 ? -129 : -1}) {
      for (const int lanes : {1, 3}) {
        auto bad = good;
        for (auto& v : std::span<std::int32_t>(bad.data(), static_cast<std::size_t>(bad.size())))
          v = std::abs(v);
        bad.data()[bad.size() / 2] = bad_value;
        EXPECT_THROW((void)programmed->run(bad, nullptr, lanes), ContractViolation)
            << "dac=" << dac_bits << " value=" << bad_value << " lanes=" << lanes;
        // The same tensor again must throw again, not hit a cached binding.
        EXPECT_THROW((void)programmed->run(bad, nullptr, lanes), ContractViolation);
      }
    }
    const auto valid = dac_bits == 1 ? good : workloads::make_input(spec, rng, 0, 7);
    arch::RunStats ref_stats, got_stats;
    const auto ref = design->run(spec, valid, kernel, &ref_stats);
    EXPECT_EQ(programmed->run(valid, &got_stats, 2), ref);
    EXPECT_EQ(got_stats, ref_stats);
  }
}

/// The Bit-Tactical lookahead/lookaside schedule must keep ideal-ADC results
/// bit-identical while shrinking cycles, at every thread count, and the
/// measured cycle count must equal what the analytic plan prices.
TEST(FastPathEquivalence, ZeroSkipScheduleLookaheadBitIdentity) {
  Rng rng(6060);
  workloads::GeneratorOptions opts;
  opts.max_spatial = 6;
  opts.max_kernel = 5;
  opts.max_channels = 3;
  for (int trial = 0; trial < 3; ++trial) {
    const auto spec = workloads::random_layer(rng, opts);
    const auto input = workloads::make_input(spec, rng, 1, 7);
    const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
    for (const bool bit_accurate : {false, true}) {
      arch::DesignConfig base_cfg;
      base_cfg.bit_accurate = bit_accurate;
      base_cfg.red_fold = 4;  // deep enough that a window actually coalesces
      arch::RunStats base_stats;
      const auto base_out = core::make_design(core::DesignKind::kRed, base_cfg)
                                ->run(spec, input, kernel, &base_stats);

      struct Knobs {
        int h, d;
      };
      for (const Knobs k : {Knobs{1, 1}, Knobs{2, 3}, Knobs{4, 4}}) {
        arch::DesignConfig cfg = base_cfg;
        cfg.lookahead_h = k.h;
        cfg.lookaside_d = k.d;
        arch::RunStats serial_stats, par_stats;
        const auto design = core::make_design(core::DesignKind::kRed, cfg);
        const auto serial_out = design->run(spec, input, kernel, &serial_stats);
        EXPECT_EQ(serial_out, base_out) << spec.name << " h=" << k.h << " d=" << k.d;
        EXPECT_LT(serial_stats.cycles, base_stats.cycles) << spec.name;
        EXPECT_EQ(serial_stats.cycles, design->activity(spec).cycles) << spec.name;

        arch::DesignConfig par_cfg = cfg;
        par_cfg.threads = 4;
        const auto par_out = core::make_design(core::DesignKind::kRed, par_cfg)
                                 ->run(spec, input, kernel, &par_stats);
        EXPECT_EQ(par_out, serial_out) << spec.name;
        EXPECT_EQ(par_stats, serial_stats) << spec.name;
      }
    }
  }
}

/// Threaded design runs must be bit-exact vs serial: identical output
/// tensors and identical RunStats for every design and both MVM paths.
TEST(FastPathEquivalence, ThreadedDesignRunsMatchSerial) {
  Rng rng(2025);
  workloads::GeneratorOptions opts;
  opts.max_spatial = 6;
  opts.max_kernel = 5;
  opts.max_channels = 3;
  for (int trial = 0; trial < 3; ++trial) {
    const auto spec = workloads::random_layer(rng, opts);
    const auto input = workloads::make_input(spec, rng, 1, 7);
    const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
    for (const bool bit_accurate : {false, true}) {
      for (const auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                              core::DesignKind::kRed}) {
        arch::DesignConfig serial_cfg;
        serial_cfg.bit_accurate = bit_accurate;
        arch::DesignConfig par_cfg = serial_cfg;
        par_cfg.threads = 4;

        arch::RunStats serial_stats, par_stats;
        const auto serial_out =
            core::make_design(kind, serial_cfg)->run(spec, input, kernel, &serial_stats);
        const auto par_out =
            core::make_design(kind, par_cfg)->run(spec, input, kernel, &par_stats);
        EXPECT_EQ(par_out, serial_out) << spec.name;
        EXPECT_EQ(par_stats, serial_stats) << spec.name;
      }
    }
  }
}

TEST(FastPathEquivalence, ParallelNetworkSimulationMatchesSerial) {
  const auto stack = workloads::sngan_generator(/*channel_div=*/32);
  Rng rng(7);
  std::vector<Tensor<std::int32_t>> inputs, kernels;
  for (const auto& layer : stack) {
    inputs.push_back(workloads::make_input(layer, rng, 1, 7));
    kernels.push_back(workloads::make_kernel(layer, rng, -7, 7));
  }
  const auto design = core::make_design(core::DesignKind::kRed);
  const auto serial = sim::simulate_network(*design, stack, inputs, kernels, true, 1);
  const auto parallel = sim::simulate_network(*design, stack, inputs, kernels, true, 4);
  ASSERT_EQ(parallel.layers.size(), serial.layers.size());
  for (std::size_t i = 0; i < serial.layers.size(); ++i) {
    EXPECT_EQ(parallel.layers[i].output, serial.layers[i].output);
    EXPECT_EQ(parallel.layers[i].measured, serial.layers[i].measured);
  }
  EXPECT_EQ(parallel.total, serial.total);
}

TEST(FastPathEquivalence, ParallelPipelineEvaluationMatchesSerial) {
  const auto stack = workloads::dcgan_generator();
  for (const auto kind : {core::DesignKind::kZeroPadding, core::DesignKind::kPaddingFree,
                          core::DesignKind::kRed}) {
    const auto serial = sim::evaluate_pipeline(kind, stack, {}, 1);
    const auto parallel = sim::evaluate_pipeline(kind, stack, {}, 4);
    EXPECT_EQ(parallel.sequential_latency.value(), serial.sequential_latency.value());
    EXPECT_EQ(parallel.initiation_interval.value(), serial.initiation_interval.value());
    EXPECT_EQ(parallel.energy_per_image.value(), serial.energy_per_image.value());
    EXPECT_EQ(parallel.total_area.value(), serial.total_area.value());
    EXPECT_EQ(parallel.buffer_bits, serial.buffer_bits);
    ASSERT_EQ(parallel.stages.size(), serial.stages.size());
    for (std::size_t i = 0; i < serial.stages.size(); ++i)
      EXPECT_EQ(parallel.stages[i].cost.total_latency().value(),
                serial.stages[i].cost.total_latency().value());
  }
}

TEST(FastPathEquivalence, ThreadPoolRunsEveryIndexOnceAndPropagatesErrors) {
  perf::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<int> hits(257, 0);
  pool.parallel_for(257, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (int h : hits) EXPECT_EQ(h, 1);

  EXPECT_THROW(pool.parallel_for(16,
                                 [&](std::int64_t i) {
                                   if (i == 7) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);

  // Nested use (layer-parallel outer, tile-parallel inner) must not deadlock.
  std::vector<std::vector<int>> nested(8, std::vector<int>(33, 0));
  pool.parallel_for(8, [&](std::int64_t outer) {
    pool.parallel_for(33, [&](std::int64_t inner) {
      ++nested[static_cast<std::size_t>(outer)][static_cast<std::size_t>(inner)];
    });
  });
  for (const auto& row : nested)
    for (int h : row) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace red
