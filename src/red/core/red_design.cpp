#include "red/core/red_design.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "red/common/contracts.h"
#include "red/core/pixel_wise_mapping.h"
#include "red/fault/inject.h"
#include "red/core/schedule.h"
#include "red/perf/mvm_kernel.h"
#include "red/perf/thread_pool.h"
#include "red/perf/workspace.h"
#include "red/plan/plan.h"

namespace red::core {

namespace {

// One logical crossbar per mode group: the group's sub-crossbars stacked on
// shared bitlines (vertical sum-up), C rows each, M logical columns.
std::vector<xbar::LogicalXbar> build_group_xbars(const nn::DeconvLayerSpec& spec,
                                                 const std::vector<ModeGroup>& groups,
                                                 const Tensor<std::int32_t>& kernel,
                                                 const xbar::QuantConfig& quant) {
  const SubCrossbarTensor sct(spec, kernel);
  std::vector<xbar::LogicalXbar> xbars;
  xbars.reserve(groups.size());
  for (const auto& g : groups) {
    std::vector<std::int32_t> w;
    w.reserve(g.scs.size() * static_cast<std::size_t>(spec.c) * spec.m);
    for (const auto& sc : g.scs) {
      const auto& blk = sct.sc_weights(sc);
      w.insert(w.end(), blk.begin(), blk.end());
    }
    xbars.emplace_back(static_cast<std::int64_t>(g.scs.size()) * spec.c, spec.m, w, quant);
  }
  return xbars;
}

// Trial-invariant half of the programmed fast path: config, schedule, and a
// cached binding of one input tensor to its checked pixels. Shared (const)
// across every perturbed or faulted sibling, so Monte Carlo trials and fault
// campaigns pay the schedule walk and the input check exactly once.
struct RedProgram {
  struct BoundInput {
    Tensor<std::int32_t> input;  ///< the bound tensor (cache validity check)
    /// Ideal ADC: each input pixel's C-channel vector, range-checked once;
    /// pixel p = h * iw + w owns the C values at p * C.
    std::vector<std::int32_t> pixels;
    /// Clipped ADC: each pixel's vector bit-packed once instead
    /// (perf::encode_input layout), the pixel_words x planes_pad words at
    /// p * pixel_words * planes_pad.
    std::vector<std::uint64_t> planes;
    std::vector<perf::EncodeSummary> sums;  ///< [pixel]
  };

  arch::DesignConfig cfg;
  nn::DeconvLayerSpec spec;
  ZeroSkipSchedule schedule;
  /// Bit-accurate through a clipped ADC: the only runs the popcount kernel
  /// serves; everything else is exact and runs the GEMV.
  bool clipped;
  int planes_pad;
  std::int64_t pixel_words;  ///< 64-bit words per plane of one pixel: ceil(C / 64)
  mutable std::mutex mu;
  mutable std::shared_ptr<const BoundInput> bound;

  RedProgram(arch::DesignConfig c, const nn::DeconvLayerSpec& s, int fold)
      : cfg(std::move(c)),
        spec(s),
        schedule(s, fold, cfg.lookahead_h, cfg.lookaside_d),
        clipped(cfg.bit_accurate && cfg.quant.adc.mode != xbar::AdcMode::kIdeal),
        planes_pad(perf::packed_planes_pad(cfg.quant)),
        pixel_words((s.c + 63) / 64) {}

  /// Plan-consuming form: the schedule reuses the plan's mode-group table.
  RedProgram(arch::DesignConfig c, const nn::DeconvLayerSpec& s, int fold,
             std::vector<ModeGroup> groups)
      : cfg(std::move(c)),
        spec(s),
        schedule(s, fold, cfg.lookahead_h, cfg.lookaside_d, std::move(groups)),
        clipped(cfg.bit_accurate && cfg.quant.adc.mode != xbar::AdcMode::kIdeal),
        planes_pad(perf::packed_planes_pad(cfg.quant)),
        pixel_words((s.c + 63) / 64) {}

  /// Check and summarize every pixel of `input`, packing it too for a
  /// clipped ADC (or return the cached binding when it is the same tensor),
  /// pixels chunked over `threads` lanes. Serialized: concurrent first
  /// callers wait while one builds. An out-of-range activation throws
  /// ContractViolation and leaves nothing cached.
  std::shared_ptr<const BoundInput> bind(const Tensor<std::int32_t>& input, int threads) const {
    std::lock_guard<std::mutex> lock(mu);
    if (bound != nullptr && bound->input == input) return bound;
    // Release the stale binding before building its successor, so at most
    // one is resident (a run still holding it keeps it alive until it ends).
    bound.reset();
    auto b = std::make_shared<BoundInput>();
    b->input = input;
    const std::int64_t pixels = std::int64_t{spec.ih} * spec.iw;
    const std::int64_t stride = pixel_words * planes_pad;
    if (clipped)
      b->planes.resize(static_cast<std::size_t>(pixels * stride));
    else
      b->pixels.resize(static_cast<std::size_t>(pixels * spec.c));
    b->sums.resize(static_cast<std::size_t>(pixels));
    perf::parallel_chunks(perf::chunk_count(threads, pixels), pixels,
                          [&](std::int64_t, std::int64_t p0, std::int64_t p1) {
      std::vector<std::int32_t> packing(clipped ? static_cast<std::size_t>(spec.c) : 0);
      for (std::int64_t p = p0; p < p1; ++p) {
        const std::span<std::int32_t> channels(
            clipped ? packing.data() : b->pixels.data() + p * spec.c,
            static_cast<std::size_t>(spec.c));
        for (int c = 0; c < spec.c; ++c)
          channels[static_cast<std::size_t>(c)] = input.ptr(0, c)[p];
        b->sums[static_cast<std::size_t>(p)] =
            clipped ? perf::encode_input(channels, cfg.quant, b->planes.data() + p * stride)
                    : perf::summarize_input(channels, cfg.quant);
      }
    }, "red.bind_chunk");
    bound = b;
    return b;
  }
};

class RedProgrammedLayer final : public arch::ProgrammedLayer {
 public:
  RedProgrammedLayer(std::shared_ptr<const RedProgram> prog,
                     std::vector<xbar::LogicalXbar> xbars)
      : prog_(std::move(prog)), xbars_(std::move(xbars)) {}

  Tensor<std::int32_t> run(const Tensor<std::int32_t>& input, arch::RunStats* stats,
                           int threads) const override {
    const auto& spec = prog_->spec;
    RED_EXPECTS(input.shape() == spec.input_shape());
    RED_EXPECTS(threads >= 1);
    const auto bound = prog_->bind(input, threads);
    const auto& schedule = prog_->schedule;
    const std::int64_t num_cycles = schedule.num_cycles();
    const int num_groups = static_cast<int>(schedule.groups().size());
    const std::int64_t out_plane = std::int64_t{spec.oh()} * spec.ow();
    const int phases = schedule.phases();

    Tensor<std::int32_t> out(spec.output_shape());
    // Same chunked group walk as RedDesign::run, fed from the bound pixels:
    // a sub-crossbar's pixel drives rows sc_index * C of its group crossbar.
    const std::int64_t chunks = perf::chunk_count(threads, num_groups);
    std::vector<arch::RunStats> chunk_stats(static_cast<std::size_t>(chunks));
    perf::parallel_chunks(chunks, num_groups, [&](std::int64_t t, std::int64_t g0,
                                                  std::int64_t g1) {
      arch::RunStats& local = chunk_stats[static_cast<std::size_t>(t)];
      // Thread-local scratch: Monte Carlo trials call run() thousands of
      // times, so the per-call construction cost matters here (unlike the
      // one-shot RedDesign::run).
      thread_local GroupScratch scratch;
      std::vector<std::int64_t> group_acc(static_cast<std::size_t>(spec.m));
      const auto emit = [&](bool produces_output, int out_y, int out_x) {
        if (produces_output)
          for (int m = 0; m < spec.m; ++m)
            out.data()[m * out_plane + std::int64_t{out_y} * spec.ow() + out_x] =
                static_cast<std::int32_t>(group_acc[static_cast<std::size_t>(m)]);
      };
      for (std::int64_t gi = g0; gi < g1; ++gi) {
        const auto& xb = xbars_[static_cast<std::size_t>(gi)];
        if (prog_->clipped) {
          run_group_clipped(xb, static_cast<int>(gi), *bound, scratch, group_acc, emit,
                            &local.mvm);
          continue;
        }
        // Ideal ADC: each cycle adds one C x M block GEMV per active
        // sub-crossbar straight into the fold accumulator; the inactive
        // sub-crossbars' rows are never read. A block spans phases()
        // coalesced cycles (== fold with the lookahead/lookaside window off).
        perf::BlockMvm mvm(xb, &local.mvm);
        for (std::int64_t ci = 0; ci < num_cycles; ++ci) {
          schedule.group_work(ci, static_cast<int>(gi), scratch.work);
          if (ci % phases == 0) std::fill(group_acc.begin(), group_acc.end(), 0);
          perf::EncodeSummary sum;
          for (const auto& in : scratch.work.inputs) {
            if (!in.active) continue;  // zero-skip: padded zeros are never streamed
            const std::int64_t p = std::int64_t{in.h} * spec.iw + in.w;
            sum += bound->sums[static_cast<std::size_t>(p)];
            mvm.add(std::int64_t{in.sc_index} * spec.c,
                    {bound->pixels.data() + p * spec.c, static_cast<std::size_t>(spec.c)},
                    group_acc.data());
          }
          mvm.end_call(sum);
          emit(scratch.work.produces_output, scratch.work.out_y, scratch.work.out_x);
        }
      }
    }, "red.group_chunk");
    arch::RunStats local;
    for (const auto& cs : chunk_stats) local += cs;
    local.cycles = num_cycles;  // cycles are a schedule property, counted once
    if (stats != nullptr) *stats = local;
    return out;
  }

  std::unique_ptr<arch::ProgrammedLayer> perturbed(
      const xbar::VariationModel& var) const override {
    std::vector<xbar::LogicalXbar> perturbed_xbars;
    perturbed_xbars.reserve(xbars_.size());
    for (const auto& xb : xbars_) perturbed_xbars.emplace_back(xb, var, xbar::FastDeltaTag{});
    return std::make_unique<RedProgrammedLayer>(prog_, std::move(perturbed_xbars));
  }

  std::unique_ptr<arch::ProgrammedLayer> faulted(const fault::FaultModel& model,
                                                 const fault::RepairPolicy& policy,
                                                 std::uint64_t salt,
                                                 fault::RepairReport* report) const override {
    std::vector<xbar::LogicalXbar> faulted_xbars;
    faulted_xbars.reserve(xbars_.size());
    fault::RepairReport total;
    for (std::size_t gi = 0; gi < xbars_.size(); ++gi) {
      // Sub-salt per group crossbar so groups draw independent fault masks;
      // 4096 bounds any realistic group count while keeping salts disjoint
      // across layers salted 0, 1, 2, ...
      fault::RepairReport rep;
      faulted_xbars.push_back(fault::inject_faults(xbars_[gi], model, policy,
                                                   salt * 4096 + gi, &rep));
      total += rep;
    }
    if (report != nullptr) *report = total;
    return std::make_unique<RedProgrammedLayer>(prog_, std::move(faulted_xbars));
  }

  xbar::VariationStats variation_stats() const override {
    xbar::VariationStats total;
    for (const auto& xb : xbars_) total += xb.variation_stats();
    return total;
  }

 private:
  /// Per-lane buffers of one group walk, reused across groups and runs.
  struct GroupScratch {
    struct CycleMeta {
      std::int32_t out_y = 0;
      std::int32_t out_x = 0;
      bool produces_output = false;
    };
    perf::MvmWorkspace ws;
    GroupWork work;                         ///< rebuilt in place each cycle
    std::vector<std::uint64_t> planes;      ///< [cycle]: packed_words x planes_pad
    std::vector<perf::EncodeSummary> sums;  ///< [cycle]
    std::vector<CycleMeta> meta;            ///< [cycle]
  };

  /// Clipped-ADC group walk: assemble every cycle's planes by OR-ing the
  /// active pixels' planes in at row offset sc_index * C, run them as one
  /// pre-packed MVM batch, then fold the partials into `group_acc` and hand
  /// each cycle's output pixel to `emit`.
  template <typename Emit>
  void run_group_clipped(const xbar::LogicalXbar& xb, int gi, const RedProgram::BoundInput& bound,
                         GroupScratch& scratch, std::vector<std::int64_t>& group_acc,
                         const Emit& emit, xbar::MvmStats* mvm_stats) const {
    const auto& spec = prog_->spec;
    const auto& schedule = prog_->schedule;
    const std::int64_t num_cycles = schedule.num_cycles();
    const int planes_pad = prog_->planes_pad;
    const std::int64_t pixel_stride = prog_->pixel_words * planes_pad;
    const std::int64_t words = xb.packed_words();
    const std::int64_t stride = words * planes_pad;
    scratch.planes.assign(static_cast<std::size_t>(num_cycles * stride), 0);
    scratch.sums.assign(static_cast<std::size_t>(num_cycles), {});
    scratch.meta.resize(static_cast<std::size_t>(num_cycles));
    for (std::int64_t ci = 0; ci < num_cycles; ++ci) {
      schedule.group_work(ci, gi, scratch.work);
      std::uint64_t* cycle_planes = scratch.planes.data() + ci * stride;
      auto& sum = scratch.sums[static_cast<std::size_t>(ci)];
      for (const auto& in : scratch.work.inputs) {
        if (!in.active) continue;  // zero-skip: padded zeros are never streamed
        const std::int64_t p = std::int64_t{in.h} * spec.iw + in.w;
        sum += bound.sums[static_cast<std::size_t>(p)];
        perf::or_packed_at(cycle_planes, words, bound.planes.data() + p * pixel_stride,
                           prog_->pixel_words, planes_pad, std::int64_t{in.sc_index} * spec.c);
      }
      scratch.meta[static_cast<std::size_t>(ci)] = {
          scratch.work.out_y, scratch.work.out_x, scratch.work.produces_output};
    }
    const auto partials =
        perf::mvm_prepacked(xb, scratch.planes, scratch.sums, scratch.ws, mvm_stats);
    for (std::int64_t ci = 0; ci < num_cycles; ++ci) {
      if (ci % schedule.phases() == 0) std::fill(group_acc.begin(), group_acc.end(), 0);
      const std::int64_t* p = partials.data() + ci * spec.m;
      for (int m = 0; m < spec.m; ++m) group_acc[static_cast<std::size_t>(m)] += p[m];
      const auto& meta = scratch.meta[static_cast<std::size_t>(ci)];
      emit(meta.produces_output, meta.out_y, meta.out_x);
    }
  }

  std::shared_ptr<const RedProgram> prog_;
  std::vector<xbar::LogicalXbar> xbars_;
};

}  // namespace

int RedDesign::fold_for(const nn::DeconvLayerSpec& spec) const {
  return plan::resolve_fold(arch::DesignKind::kRed, spec, cfg_);
}

Tensor<std::int32_t> RedDesign::run(const nn::DeconvLayerSpec& spec,
                                    const Tensor<std::int32_t>& input,
                                    const Tensor<std::int32_t>& kernel,
                                    arch::RunStats* stats) const {
  spec.validate();
  RED_EXPECTS(input.shape() == spec.input_shape());
  RED_EXPECTS(kernel.shape() == spec.kernel_shape());

  const ZeroSkipSchedule schedule(spec, fold_for(spec), cfg_.lookahead_h, cfg_.lookaside_d);
  const auto& groups = schedule.groups();
  const std::vector<xbar::LogicalXbar> group_xbars =
      build_group_xbars(spec, groups, kernel, cfg_.quant);

  Tensor<std::int32_t> out(spec.output_shape());
  const std::int64_t num_cycles = schedule.num_cycles();
  const int num_groups = static_cast<int>(groups.size());
  const std::int64_t out_plane = std::int64_t{spec.oh()} * spec.ow();
  const int phases = schedule.phases();

  // Mode groups are independent executors: each owns its crossbar, its fold
  // accumulator, and a disjoint set of output pixels (one (a, b) output
  // residue class per group). Chunk them across the pool; per-chunk stats are
  // merged in chunk order after the join, so any thread count reproduces the
  // serial cycle-major walk bit-exactly.
  const std::int64_t chunks = perf::chunk_count(cfg_.threads, num_groups);
  std::vector<arch::RunStats> chunk_stats(static_cast<std::size_t>(chunks));
  perf::parallel_chunks(chunks, num_groups, [&](std::int64_t t, std::int64_t g0,
                                                std::int64_t g1) {
    arch::RunStats& local = chunk_stats[static_cast<std::size_t>(t)];
    perf::MvmWorkspace ws;
    std::vector<std::int32_t> group_input;
    // Per-group accumulator carrying partial sums across fold phases (Eq. 2);
    // phases of one block are adjacent in the schedule.
    std::vector<std::int64_t> group_acc(static_cast<std::size_t>(spec.m));
    GroupWork work;  // rebuilt in place each cycle, reusing inputs capacity
    for (int gi = static_cast<int>(g0); gi < g1; ++gi) {
      for (std::int64_t ci = 0; ci < num_cycles; ++ci) {
        schedule.group_work(ci, gi, work);
        if (ci % phases == 0) std::fill(group_acc.begin(), group_acc.end(), 0);

        group_input.assign(work.inputs.size() * static_cast<std::size_t>(spec.c), 0);
        for (const auto& in : work.inputs) {
          if (!in.active) continue;  // zero-skip: padded zeros are never streamed
          for (int c = 0; c < spec.c; ++c)
            group_input[static_cast<std::size_t>(in.sc_index) * spec.c +
                        static_cast<std::size_t>(c)] =
                input.ptr(0, c)[std::int64_t{in.h} * spec.iw + in.w];
        }
        const auto partial =
            execute_mvm(group_xbars[static_cast<std::size_t>(gi)], group_input, ws, &local.mvm);
        for (int m = 0; m < spec.m; ++m)
          group_acc[static_cast<std::size_t>(m)] += partial[static_cast<std::size_t>(m)];

        if (work.produces_output)
          for (int m = 0; m < spec.m; ++m)
            out.data()[m * out_plane + std::int64_t{work.out_y} * spec.ow() + work.out_x] =
                static_cast<std::int32_t>(group_acc[static_cast<std::size_t>(m)]);
      }
    }
  });
  arch::RunStats local;
  for (const auto& cs : chunk_stats) local += cs;
  local.cycles = num_cycles;  // cycles are a schedule property, counted once
  if (stats != nullptr) *stats = local;
  return out;
}

std::unique_ptr<arch::ProgrammedLayer> RedDesign::program(
    const nn::DeconvLayerSpec& spec, const Tensor<std::int32_t>& kernel) const {
  spec.validate();
  RED_EXPECTS(kernel.shape() == spec.kernel_shape());
  RED_EXPECTS_MSG(!cfg_.quant.variation.enabled(),
                  "program() takes a clean config; inject variation via perturbed()");
  auto prog = std::make_shared<RedProgram>(cfg_, spec, fold_for(spec));
  auto xbars = build_group_xbars(spec, prog->schedule.groups(), kernel, cfg_.quant);
  return std::make_unique<RedProgrammedLayer>(std::move(prog), std::move(xbars));
}

std::unique_ptr<arch::ProgrammedLayer> RedDesign::program(
    const plan::LayerPlan& plan, const Tensor<std::int32_t>& kernel) const {
  check_plan(plan);
  RED_EXPECTS(kernel.shape() == plan.spec.kernel_shape());
  RED_EXPECTS_MSG(!cfg_.quant.variation.enabled(),
                  "program() takes a clean config; inject variation via perturbed()");
  // Consume the compiled mapping: fold and mode groups come from the plan.
  auto prog = std::make_shared<RedProgram>(cfg_, plan.spec, plan.fold, plan.groups);
  auto xbars = build_group_xbars(plan.spec, prog->schedule.groups(), kernel, cfg_.quant);
  return std::make_unique<RedProgrammedLayer>(std::move(prog), std::move(xbars));
}

}  // namespace red::core
