#include "red/arch/padding_free_design.h"

#include <memory>
#include <utility>
#include <vector>

#include "red/common/contracts.h"
#include "red/fault/inject.h"
#include "red/perf/workspace.h"
#include "red/plan/plan.h"

namespace red::arch {

// The activity model lives in plan.cpp (padding_free_activity): the compile
// layer is the single home of the mapping arithmetic.

namespace {

// The programmed macro plus the layer geometry its scatter needs. Immutable.
class PfProgrammedLayer final : public ProgrammedLayer {
 public:
  PfProgrammedLayer(const nn::DeconvLayerSpec& spec, bool bit_accurate, xbar::LogicalXbar macro)
      : spec_(spec), bit_accurate_(bit_accurate), macro_(std::move(macro)) {}

  // The overlap scatter is inherently serial: any `threads` budget runs it
  // on the calling thread.
  Tensor<std::int32_t> run(const Tensor<std::int32_t>& input, RunStats* stats,
                           int threads) const override {
    const auto& spec = spec_;
    RED_EXPECTS(input.shape() == spec.input_shape());
    RED_EXPECTS(threads >= 1);
    const std::int64_t lcols = macro_.cols();
    const int canvas_h = (spec.ih - 1) * spec.stride + spec.kh;
    const int canvas_w = (spec.iw - 1) * spec.stride + spec.kw;
    const std::int64_t canvas_plane = std::int64_t{canvas_h} * canvas_w;
    std::vector<std::int32_t> row_pixels(static_cast<std::size_t>(spec.iw) * spec.c);
    perf::MvmWorkspace ws;
    // Workspace-backed scatter canvas, [m][canvas_h][canvas_w].
    ws.canvas.assign(static_cast<std::size_t>(spec.m) * static_cast<std::size_t>(canvas_plane),
                     0);
    std::int32_t* canvas = ws.canvas.data();

    RunStats local;
    for (int h = 0; h < spec.ih; ++h) {
      // One batched MVM per input row amortizes encoding setup and buffers
      // across the row's pixels (stats accumulate exactly as per-pixel calls).
      for (int wpix = 0; wpix < spec.iw; ++wpix)
        for (int c = 0; c < spec.c; ++c)
          row_pixels[static_cast<std::size_t>(wpix) * spec.c + c] =
              input.ptr(0, c)[std::int64_t{h} * spec.iw + wpix];
      const auto res_row = macro_.mvm_batch(row_pixels, spec.iw, bit_accurate_, ws, &local.mvm);
      local.cycles += spec.iw;

      // Overlap accumulation (step c of Algorithm 2).
      for (int wpix = 0; wpix < spec.iw; ++wpix) {
        const std::int64_t* res = res_row.data() + std::int64_t{wpix} * lcols;
        for (int i = 0; i < spec.kh; ++i)
          for (int j = 0; j < spec.kw; ++j) {
            const std::int64_t* rblock = res + (std::int64_t{i} * spec.kw + j) * spec.m;
            const std::int64_t cy = h * spec.stride + i;
            const std::int64_t cx = std::int64_t{wpix} * spec.stride + j;
            for (int m = 0; m < spec.m; ++m) {
              canvas[m * canvas_plane + cy * canvas_w + cx] +=
                  static_cast<std::int32_t>(rblock[m]);
              ++local.overlap_adds;
              local.buffer_accesses += 2;
            }
          }
      }
    }

    // Crop (step d).
    const int oh = spec.oh(), ow = spec.ow();
    Tensor<std::int32_t> out(spec.output_shape());
    for (int m = 0; m < spec.m; ++m)
      for (int y = 0; y < oh; ++y)
        for (int x = 0; x < ow; ++x) {
          const int cy = y + spec.pad;
          const int cx = x + spec.pad;
          if (cy < canvas_h && cx < canvas_w)
            out.at(0, m, y, x) = canvas[m * canvas_plane + std::int64_t{cy} * canvas_w + cx];
        }
    if (stats != nullptr) *stats = local;
    return out;
  }

  std::unique_ptr<ProgrammedLayer> perturbed(const xbar::VariationModel& var) const override {
    return std::make_unique<PfProgrammedLayer>(
        spec_, bit_accurate_, xbar::LogicalXbar(macro_, var, xbar::FastDeltaTag{}));
  }

  std::unique_ptr<ProgrammedLayer> faulted(const fault::FaultModel& model,
                                           const fault::RepairPolicy& policy, std::uint64_t salt,
                                           fault::RepairReport* report) const override {
    return std::make_unique<PfProgrammedLayer>(
        spec_, bit_accurate_, fault::inject_faults(macro_, model, policy, salt, report));
  }

  xbar::VariationStats variation_stats() const override { return macro_.variation_stats(); }

 private:
  nn::DeconvLayerSpec spec_;
  bool bit_accurate_;
  xbar::LogicalXbar macro_;
};

}  // namespace

std::unique_ptr<ProgrammedLayer> PaddingFreeDesign::program(
    const plan::LayerPlan& plan, const Tensor<std::int32_t>& kernel) const {
  check_plan(plan);
  const auto& spec = plan.spec;
  RED_EXPECTS(kernel.shape() == spec.kernel_shape());

  // Program the macro: column (i*KW + j)*M + m of row c holds W[i,j,c,m].
  // (The paper's explicit 180-degree rotation and our scatter-form weights
  //  cancel; see deconv_padding_free.h.)
  const std::int64_t lcols = std::int64_t{spec.kh} * spec.kw * spec.m;
  std::vector<std::int32_t> w(static_cast<std::size_t>(spec.c * lcols));
  for (int c = 0; c < spec.c; ++c)
    for (int i = 0; i < spec.kh; ++i)
      for (int j = 0; j < spec.kw; ++j)
        for (int m = 0; m < spec.m; ++m)
          w[static_cast<std::size_t>(std::int64_t{c} * lcols +
                                     (std::int64_t{i} * spec.kw + j) * spec.m + m)] =
              kernel.at(i, j, c, m);
  return std::make_unique<PfProgrammedLayer>(spec, cfg_.bit_accurate,
                                             xbar::LogicalXbar(spec.c, lcols, w, cfg_.quant));
}

}  // namespace red::arch
