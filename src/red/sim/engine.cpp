#include "red/sim/engine.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "red/common/contracts.h"
#include "red/common/error.h"
#include "red/common/string_util.h"
#include "red/core/designs.h"
#include "red/perf/thread_pool.h"
#include "red/tensor/tensor_ops.h"

namespace red::sim {

namespace {

void check_eq(std::vector<std::string>& issues, const char* what, std::int64_t predicted,
              std::int64_t measured) {
  if (predicted != measured) {
    std::ostringstream os;
    os << what << ": predicted " << predicted << " but measured " << measured;
    issues.push_back(os.str());
  }
}

}  // namespace

std::vector<std::string> consistency_issues(const arch::LayerActivity& predicted,
                                            const arch::RunStats& measured,
                                            bool expect_exact_drives) {
  std::vector<std::string> issues;
  check_eq(issues, "cycles", predicted.cycles, measured.cycles);
  check_eq(issues, "conversions", predicted.conversions, measured.mvm.conversions);
  if (expect_exact_drives) {
    check_eq(issues, "row_drives", predicted.row_drives, measured.mvm.row_drives);
  } else if (measured.mvm.row_drives > predicted.row_drives) {
    std::ostringstream os;
    os << "row_drives: measured " << measured.mvm.row_drives
       << " exceeds the structural bound " << predicted.row_drives;
    issues.push_back(os.str());
  }
  // Unconditional: a zero prediction is as binding as a nonzero one — a
  // design that overlap-adds or buffers when the model says it shouldn't is
  // exactly the kind of disagreement this check exists to flag.
  check_eq(issues, "overlap_adds", predicted.overlap_adds, measured.overlap_adds);
  check_eq(issues, "buffer_accesses", predicted.buffer_accesses, measured.buffer_accesses);
  return issues;
}

SimulationResult simulate(const arch::Design& design, const nn::DeconvLayerSpec& spec,
                          const Tensor<std::int32_t>& input, const Tensor<std::int32_t>& kernel,
                          bool check) {
  return simulate(design, plan::plan_layer(design.kind(), spec, design.config()), input,
                  kernel, check);
}

SimulationResult simulate(const arch::Design& design, const plan::LayerPlan& lp,
                          const Tensor<std::int32_t>& input, const Tensor<std::int32_t>& kernel,
                          bool check) {
  SimulationResult result{Tensor<std::int32_t>{}, {}, design.activity(lp), design.cost(lp)};
  result.output =
      design.program(lp, kernel)->run(input, &result.measured, design.config().threads);
  if (check) {
    const bool exact_drives = count_zeros(input) == 0;
    const auto issues = consistency_issues(result.predicted, result.measured, exact_drives);
    if (!issues.empty())
      throw MismatchError("design '" + design.name() + "' on layer '" + lp.spec.name +
                          "' is inconsistent: " + join(issues, "; "));
  }
  return result;
}

namespace {

// Shared body of the two simulate_network overloads: one compiled plan per
// layer, executed serially or fanned out.
NetworkSimulationResult simulate_planned_network(const arch::Design& design,
                                                 const std::vector<plan::LayerPlan>& plans,
                                                 const std::vector<Tensor<std::int32_t>>& inputs,
                                                 const std::vector<Tensor<std::int32_t>>& kernels,
                                                 bool check, int threads) {
  RED_EXPECTS_MSG(plans.size() == inputs.size() && plans.size() == kernels.size(),
                  "stack, inputs, and kernels must align");
  RED_EXPECTS(threads >= 1);

  NetworkSimulationResult net;
  net.layers.resize(plans.size());
  if (threads == 1) {
    for (std::size_t i = 0; i < plans.size(); ++i)
      net.layers[i] = simulate(design, plans[i], inputs[i], kernels[i], check);
  } else {
    // Layers are independent: fan them out over at most `threads` lanes
    // (chunked, so the requested lane count — not the global pool size —
    // bounds this call's layer-level concurrency) and let per-layer slots
    // keep the reduction deterministic. Once any layer fails, remaining
    // layers are skipped (best effort) and the first error in layer order is
    // rethrown, mirroring the serial stop-at-first-exception behavior.
    const auto n = static_cast<std::int64_t>(plans.size());
    std::vector<std::exception_ptr> errors(plans.size());
    std::atomic<bool> failed{false};
    perf::parallel_chunks(perf::chunk_count(threads, n), n,
                          [&](std::int64_t, std::int64_t i0, std::int64_t i1) {
                            for (std::int64_t i = i0; i < i1; ++i) {
                              if (failed.load(std::memory_order_acquire)) return;
                              const auto idx = static_cast<std::size_t>(i);
                              try {
                                net.layers[idx] = simulate(design, plans[idx], inputs[idx],
                                                           kernels[idx], check);
                              } catch (...) {
                                errors[idx] = std::current_exception();
                                failed.store(true, std::memory_order_release);
                              }
                            }
                          });
    for (const auto& err : errors)
      if (err) std::rethrow_exception(err);
  }
  for (const auto& layer : net.layers) net.total += layer.measured;
  return net;
}

}  // namespace

NetworkSimulationResult simulate_network(const arch::Design& design,
                                         const std::vector<nn::DeconvLayerSpec>& stack,
                                         const std::vector<Tensor<std::int32_t>>& inputs,
                                         const std::vector<Tensor<std::int32_t>>& kernels,
                                         bool check, int threads) {
  std::vector<plan::LayerPlan> plans;
  plans.reserve(stack.size());
  for (const auto& spec : stack)
    plans.push_back(plan::plan_layer(design.kind(), spec, design.config()));
  return simulate_planned_network(design, plans, inputs, kernels, check, threads);
}

NetworkSimulationResult simulate_network(const plan::StackPlan& splan,
                                         const std::vector<Tensor<std::int32_t>>& inputs,
                                         const std::vector<Tensor<std::int32_t>>& kernels,
                                         bool check, int threads) {
  const auto design = core::make_design(splan.kind, splan.cfg);
  return simulate_planned_network(*design, splan.layers, inputs, kernels, check, threads);
}

}  // namespace red::sim
