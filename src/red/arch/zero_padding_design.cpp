#include "red/arch/zero_padding_design.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "red/common/contracts.h"
#include "red/fault/inject.h"
#include "red/nn/conv.h"
#include "red/nn/deconv_zero_padding.h"
#include "red/nn/redundancy.h"
#include "red/perf/thread_pool.h"
#include "red/perf/workspace.h"

namespace red::arch {

namespace {

// Program the macro: row (i*KW + j)*C + c holds the 180-degree-rotated
// kernel (the stride-1 convolution form of Algorithm 1, step b).
std::vector<std::int32_t> macro_weights(const nn::DeconvLayerSpec& spec,
                                        const Tensor<std::int32_t>& kernel) {
  const Tensor<std::int32_t> rot = nn::rotate180(kernel);
  const std::int64_t rows = std::int64_t{spec.kh} * spec.kw * spec.c;
  std::vector<std::int32_t> w(static_cast<std::size_t>(rows * spec.m));
  for (int i = 0; i < spec.kh; ++i)
    for (int j = 0; j < spec.kw; ++j)
      for (int c = 0; c < spec.c; ++c) {
        const std::int64_t r = (std::int64_t{i} * spec.kw + j) * spec.c + c;
        for (int m = 0; m < spec.m; ++m)
          w[static_cast<std::size_t>(r * spec.m + m)] = rot.at(i, j, c, m);
      }
  return w;
}

// Trial-invariant half of the programmed fast path: config plus a cached
// binding of one input tensor to its row-major padded windows (one window per
// output pixel). Shared across perturbed siblings.
struct ZpProgram {
  struct BoundInput {
    Tensor<std::int32_t> input;           ///< the bound tensor (cache check)
    std::vector<std::int32_t> windows;    ///< oh*ow windows of `rows` values each
  };

  DesignConfig cfg;
  nn::DeconvLayerSpec spec;
  std::int64_t rows = 0;  ///< KH*KW*C macro rows (window length)
  mutable std::mutex mu;
  mutable std::shared_ptr<const BoundInput> bound;

  ZpProgram(DesignConfig c, const nn::DeconvLayerSpec& s)
      : cfg(std::move(c)), spec(s), rows(std::int64_t{s.kh} * s.kw * s.c) {}

  /// Gather the padded windows of `input` (or return the cached binding when
  /// it is the same tensor), output rows chunked over `threads` lanes.
  /// Serialized: concurrent first callers wait while one builds.
  std::shared_ptr<const BoundInput> bind(const Tensor<std::int32_t>& input, int threads) const {
    std::lock_guard<std::mutex> lock(mu);
    if (bound != nullptr && bound->input == input) return bound;
    // Release the stale binding before building its successor, so at most
    // one is resident (a run still holding it keeps it alive until it ends).
    bound.reset();
    auto b = std::make_shared<BoundInput>();
    b->input = input;
    const Tensor<std::int32_t> padded = nn::zero_pad_input(spec, input);
    const int oh = spec.oh(), ow = spec.ow();
    const std::int64_t pw = padded.shape().dim(3);
    b->windows.assign(static_cast<std::size_t>(std::int64_t{oh} * ow * rows), 0);
    perf::parallel_chunks(perf::chunk_count(threads, oh), oh,
                          [&](std::int64_t, std::int64_t y0, std::int64_t y1) {
      for (std::int64_t y = y0; y < y1; ++y)
        for (int x = 0; x < ow; ++x) {
          std::int32_t* window = b->windows.data() + (y * ow + x) * rows;
          for (int c = 0; c < spec.c; ++c) {
            const std::int32_t* plane = padded.ptr(0, c);
            for (int i = 0; i < spec.kh; ++i) {
              const std::int32_t* prow = plane + (y + i) * pw + x;
              for (int j = 0; j < spec.kw; ++j)
                window[static_cast<std::size_t>((std::int64_t{i} * spec.kw + j) * spec.c + c)] =
                    prow[j];
            }
          }
        }
    });
    bound = b;
    return b;
  }
};

class ZpProgrammedLayer final : public ProgrammedLayer {
 public:
  ZpProgrammedLayer(std::shared_ptr<const ZpProgram> prog, xbar::LogicalXbar macro)
      : prog_(std::move(prog)), macro_(std::move(macro)) {}

  Tensor<std::int32_t> run(const Tensor<std::int32_t>& input, RunStats* stats,
                           int threads) const override {
    const auto& spec = prog_->spec;
    RED_EXPECTS(input.shape() == spec.input_shape());
    RED_EXPECTS(threads >= 1);
    const auto bound = prog_->bind(input, threads);
    const int oh = spec.oh(), ow = spec.ow();
    const std::int64_t rows = prog_->rows;
    const std::int64_t out_plane = std::int64_t{oh} * ow;

    Tensor<std::int32_t> out(spec.output_shape());
    // Same output-row tiling as ZeroPaddingDesign::run, but each tile runs
    // its pixels as one batched MVM over the pre-gathered windows.
    const std::int64_t tiles = perf::chunk_count(threads, oh);
    std::vector<RunStats> tile_stats(static_cast<std::size_t>(tiles));
    perf::parallel_chunks(tiles, oh, [&](std::int64_t t, std::int64_t y0, std::int64_t y1) {
      RunStats& local = tile_stats[static_cast<std::size_t>(t)];
      // Thread-local: repeated Monte Carlo trial runs skip re-allocation.
      thread_local perf::MvmWorkspace ws;
      const std::int64_t batch = (y1 - y0) * ow;
      if (batch == 0) return;
      const std::span<const std::int32_t> windows(bound->windows.data() + y0 * ow * rows,
                                                  static_cast<std::size_t>(batch * rows));
      const auto results =
          macro_.mvm_batch(windows, batch, prog_->cfg.bit_accurate, ws, &local.mvm);
      local.cycles += batch;
      for (std::int64_t k = 0; k < batch; ++k) {
        const std::int64_t pixel = y0 * ow + k;
        const std::int64_t* res = results.data() + k * spec.m;
        std::int32_t* opix = out.data() + pixel;
        for (int m = 0; m < spec.m; ++m)
          opix[m * out_plane] = static_cast<std::int32_t>(res[m]);
      }
    });
    RunStats local;
    for (const auto& ts : tile_stats) local += ts;
    if (stats != nullptr) *stats = local;
    return out;
  }

  std::unique_ptr<ProgrammedLayer> perturbed(const xbar::VariationModel& var) const override {
    return std::make_unique<ZpProgrammedLayer>(
        prog_, xbar::LogicalXbar(macro_, var, xbar::FastDeltaTag{}));
  }

  std::unique_ptr<ProgrammedLayer> faulted(const fault::FaultModel& model,
                                           const fault::RepairPolicy& policy, std::uint64_t salt,
                                           fault::RepairReport* report) const override {
    return std::make_unique<ZpProgrammedLayer>(
        prog_, fault::inject_faults(macro_, model, policy, salt, report));
  }

  xbar::VariationStats variation_stats() const override { return macro_.variation_stats(); }

 private:
  std::shared_ptr<const ZpProgram> prog_;
  xbar::LogicalXbar macro_;
};

}  // namespace

// The activity model lives in plan.cpp (zero_padding_activity): the compile
// layer is the single home of the mapping arithmetic.

Tensor<std::int32_t> ZeroPaddingDesign::run(const nn::DeconvLayerSpec& spec,
                                            const Tensor<std::int32_t>& input,
                                            const Tensor<std::int32_t>& kernel,
                                            RunStats* stats) const {
  spec.validate();
  RED_EXPECTS(input.shape() == spec.input_shape());
  RED_EXPECTS(kernel.shape() == spec.kernel_shape());

  const std::int64_t rows = std::int64_t{spec.kh} * spec.kw * spec.c;
  const xbar::LogicalXbar macro(rows, spec.m, macro_weights(spec, kernel), cfg_.quant);

  const Tensor<std::int32_t> padded = nn::zero_pad_input(spec, input);
  const int oh = spec.oh(), ow = spec.ow();
  Tensor<std::int32_t> out(spec.output_shape());
  const std::int64_t pw = padded.shape().dim(3);
  const std::int64_t out_plane = std::int64_t{oh} * ow;

  // Output rows are independent: tile them across the pool. Each tile owns
  // its window buffer, workspace, and RunStats slot; slots are merged in tile
  // order after the join, so any thread count is bit-exact vs serial.
  const std::int64_t tiles = perf::chunk_count(cfg_.threads, oh);
  std::vector<RunStats> tile_stats(static_cast<std::size_t>(tiles));
  perf::parallel_chunks(tiles, oh, [&](std::int64_t t, std::int64_t y0, std::int64_t y1) {
    RunStats& local = tile_stats[static_cast<std::size_t>(t)];
    perf::MvmWorkspace ws;
    std::vector<std::int32_t> window(static_cast<std::size_t>(rows));
    for (std::int64_t y = y0; y < y1; ++y)
      for (int x = 0; x < ow; ++x) {
        for (int c = 0; c < spec.c; ++c) {
          const std::int32_t* plane = padded.ptr(0, c);
          for (int i = 0; i < spec.kh; ++i) {
            const std::int32_t* prow = plane + (y + i) * pw + x;
            for (int j = 0; j < spec.kw; ++j)
              window[static_cast<std::size_t>((std::int64_t{i} * spec.kw + j) * spec.c + c)] =
                  prow[j];
          }
        }
        const auto res = execute_mvm(macro, window, ws, &local.mvm);
        ++local.cycles;
        std::int32_t* orow = out.data() + std::int64_t{y} * ow + x;
        for (int m = 0; m < spec.m; ++m)
          orow[m * out_plane] = static_cast<std::int32_t>(res[static_cast<std::size_t>(m)]);
      }
  });
  RunStats local;
  for (const auto& ts : tile_stats) local += ts;
  if (stats != nullptr) *stats = local;
  return out;
}

std::unique_ptr<ProgrammedLayer> ZeroPaddingDesign::program(
    const nn::DeconvLayerSpec& spec, const Tensor<std::int32_t>& kernel) const {
  spec.validate();
  RED_EXPECTS(kernel.shape() == spec.kernel_shape());
  RED_EXPECTS_MSG(!cfg_.quant.variation.enabled(),
                  "program() takes a clean config; inject variation via perturbed()");
  auto prog = std::make_shared<ZpProgram>(cfg_, spec);
  xbar::LogicalXbar macro(prog->rows, spec.m, macro_weights(spec, kernel), cfg_.quant);
  return std::make_unique<ZpProgrammedLayer>(std::move(prog), std::move(macro));
}

}  // namespace red::arch
