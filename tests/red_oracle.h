// Test oracle for RED's programmed layers: the plain per-cycle schedule walk.
//
// For every (mode group, cycle) it asks ZeroSkipSchedule::group_work which
// sub-crossbars are active, builds the zero-filled group input (each active
// sub-crossbar's input pixel at rows sc_index * C), and runs one
// LogicalXbar::mvm_bit_accurate_reference on a group crossbar built here
// from SubCrossbarTensor. It shares none of the programmed layer's input
// bind, pre-packed planes, block GEMV or chunking, so it stays the
// independent reference for all of them in outputs and full RunStats.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "red/arch/design.h"
#include "red/core/pixel_wise_mapping.h"
#include "red/core/schedule.h"
#include "red/plan/plan.h"
#include "red/tensor/tensor.h"
#include "red/xbar/crossbar.h"

namespace red::testing {

/// RED's output and RunStats for `input` under `cfg`, walked serially. An
/// exact-mode config (bit_accurate off) never converts through the ADC, so
/// its group crossbars are built with an ideal one.
inline Tensor<std::int32_t> red_oracle_run(const arch::DesignConfig& cfg,
                                           const nn::DeconvLayerSpec& spec,
                                           const Tensor<std::int32_t>& input,
                                           const Tensor<std::int32_t>& kernel,
                                           arch::RunStats* stats = nullptr) {
  const core::ZeroSkipSchedule schedule(
      spec, plan::resolve_fold(arch::DesignKind::kRed, spec, cfg), cfg.lookahead_h,
      cfg.lookaside_d);
  xbar::QuantConfig quant = cfg.quant;
  if (!cfg.bit_accurate) quant.adc.mode = xbar::AdcMode::kIdeal;
  const core::SubCrossbarTensor sct(spec, kernel);
  std::vector<xbar::LogicalXbar> xbars;
  for (const auto& g : schedule.groups()) {
    std::vector<std::int32_t> w;
    for (const auto& sc : g.scs) {
      const auto& blk = sct.sc_weights(sc);
      w.insert(w.end(), blk.begin(), blk.end());
    }
    xbars.emplace_back(static_cast<std::int64_t>(g.scs.size()) * spec.c, spec.m, w, quant);
  }

  Tensor<std::int32_t> out(spec.output_shape());
  const std::int64_t out_plane = std::int64_t{spec.oh()} * spec.ow();
  arch::RunStats local;
  std::vector<std::int64_t> acc(static_cast<std::size_t>(spec.m));
  for (int gi = 0; gi < static_cast<int>(xbars.size()); ++gi) {
    for (std::int64_t ci = 0; ci < schedule.num_cycles(); ++ci) {
      const core::GroupWork work = schedule.group_work(ci, gi);
      // Phases of one block are adjacent; the accumulator carries partial
      // sums across them (Eq. 2).
      if (ci % schedule.phases() == 0) std::fill(acc.begin(), acc.end(), 0);
      std::vector<std::int32_t> group_input(work.inputs.size() * static_cast<std::size_t>(spec.c),
                                            0);
      for (const auto& in : work.inputs) {
        if (!in.active) continue;  // zero-skip: padded zeros are never streamed
        for (int c = 0; c < spec.c; ++c)
          group_input[static_cast<std::size_t>(in.sc_index) * spec.c +
                      static_cast<std::size_t>(c)] =
              input.ptr(0, c)[std::int64_t{in.h} * spec.iw + in.w];
      }
      const auto partial = xbars[static_cast<std::size_t>(gi)].mvm_bit_accurate_reference(
          group_input, &local.mvm);
      for (int m = 0; m < spec.m; ++m)
        acc[static_cast<std::size_t>(m)] += partial[static_cast<std::size_t>(m)];
      if (work.produces_output)
        for (int m = 0; m < spec.m; ++m)
          out.data()[m * out_plane + std::int64_t{work.out_y} * spec.ow() + work.out_x] =
              static_cast<std::int32_t>(acc[static_cast<std::size_t>(m)]);
    }
  }
  local.cycles = schedule.num_cycles();  // all groups run concurrently
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace red::testing
