#include "red/sim/montecarlo.h"

#include "red/common/contracts.h"
#include "red/perf/thread_pool.h"
#include "red/tensor/tensor_ops.h"

namespace red::sim {

double MonteCarloResult::mean_nrmse() const {
  if (trials.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& t : trials) sum += t.nrmse;
  return sum / static_cast<double>(trials.size());
}

xbar::VariationStats MonteCarloResult::variation_total() const {
  xbar::VariationStats total;
  for (const auto& t : trials) total += t.variation;
  return total;
}

double MonteCarloResult::mean_perturbed_cells() const {
  if (trials.empty()) return 0.0;
  return static_cast<double>(variation_total().perturbed_cells) /
         static_cast<double>(trials.size());
}

double MonteCarloResult::mean_stuck_cells() const {
  if (trials.empty()) return 0.0;
  return static_cast<double>(variation_total().stuck_cells) /
         static_cast<double>(trials.size());
}

std::vector<MonteCarloResult> run_monte_carlo_grid(
    core::DesignKind kind, const arch::DesignConfig& base_cfg,
    const std::vector<xbar::VariationModel>& vars, const nn::DeconvLayerSpec& spec,
    const Tensor<std::int32_t>& input, const Tensor<std::int32_t>& kernel,
    const Tensor<std::int32_t>& reference, const MonteCarloOptions& opts) {
  RED_EXPECTS(!vars.empty());
  RED_EXPECTS(opts.trials >= 1);
  RED_EXPECTS(opts.threads >= 1);
  for (const auto& var : vars) var.validate();

  // Program the clean base once for the whole grid; trials are the parallel
  // axis, so each trial runs its programmed layer on a budget of one lane.
  arch::DesignConfig clean_cfg = base_cfg;
  clean_cfg.quant.variation = {};
  const auto design = core::make_design(kind, clean_cfg);
  const auto programmed = design->program(spec, kernel);

  std::vector<MonteCarloResult> results(vars.size());
  for (auto& r : results) r.trials.resize(static_cast<std::size_t>(opts.trials));

  // One flat (grid entry, trial) index space keeps the pool busy even when a
  // single entry has fewer trials than lanes; per-trial slots keep any
  // thread count bit-identical.
  const std::int64_t total = static_cast<std::int64_t>(vars.size()) * opts.trials;
  const std::int64_t chunks = perf::chunk_count(opts.threads, total);
  perf::parallel_chunks(chunks, total, [&](std::int64_t, std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const std::size_t g = static_cast<std::size_t>(i / opts.trials);
      const std::int64_t t = i % opts.trials;
      xbar::VariationModel trial_var = vars[g];
      trial_var.seed = opts.base_seed + static_cast<std::uint64_t>(t);
      MonteCarloTrial& trial = results[g].trials[static_cast<std::size_t>(t)];
      trial.seed = trial_var.seed;
      const auto perturbed = programmed->perturbed(trial_var);
      trial.nrmse = normalized_rmse(reference, perturbed->run(input, &trial.stats));
      trial.variation = perturbed->variation_stats();
    }
  });
  return results;
}

MonteCarloResult run_monte_carlo(core::DesignKind kind, const arch::DesignConfig& base_cfg,
                                 const xbar::VariationModel& var,
                                 const nn::DeconvLayerSpec& spec,
                                 const Tensor<std::int32_t>& input,
                                 const Tensor<std::int32_t>& kernel,
                                 const Tensor<std::int32_t>& reference,
                                 const MonteCarloOptions& opts) {
  return run_monte_carlo_grid(kind, base_cfg, {var}, spec, input, kernel, reference,
                              opts)[0];
}

}  // namespace red::sim
