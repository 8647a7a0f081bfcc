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
// cached binding of one input tensor to per-group batched cycle inputs plus
// per-cycle output placement. Shared (const) across every perturbed sibling,
// so Monte Carlo trials pay the schedule walk and input gather exactly once.
struct RedProgram {
  struct CycleMeta {
    std::int32_t out_y = 0;
    std::int32_t out_x = 0;
    bool produces_output = false;
  };

  struct BoundInput {
    Tensor<std::int32_t> input;  ///< the bound tensor (cache validity check)
    std::vector<std::vector<std::int32_t>> group_inputs;  ///< [group]: cycles x rows
    std::vector<std::vector<CycleMeta>> group_meta;       ///< [group][cycle]
  };

  arch::DesignConfig cfg;
  nn::DeconvLayerSpec spec;
  ZeroSkipSchedule schedule;
  mutable std::mutex mu;
  mutable std::shared_ptr<const BoundInput> bound;

  RedProgram(arch::DesignConfig c, const nn::DeconvLayerSpec& s, int fold)
      : cfg(std::move(c)), spec(s), schedule(s, fold, cfg.lookahead_h, cfg.lookaside_d) {}

  /// Plan-consuming form: the schedule reuses the plan's mode-group table.
  RedProgram(arch::DesignConfig c, const nn::DeconvLayerSpec& s, int fold,
             std::vector<ModeGroup> groups)
      : cfg(std::move(c)),
        spec(s),
        schedule(s, fold, cfg.lookahead_h, cfg.lookaside_d, std::move(groups)) {}

  /// Gather the per-cycle group inputs of `input` (or return the cached
  /// binding when it is the same tensor), groups chunked over `threads`
  /// lanes. Serialized: concurrent first callers wait while one builds.
  std::shared_ptr<const BoundInput> bind(const Tensor<std::int32_t>& input, int threads) const {
    std::lock_guard<std::mutex> lock(mu);
    if (bound != nullptr && bound->input == input) return bound;
    // Release the stale binding before building its successor, so at most
    // one is resident (a run still holding it keeps it alive until it ends).
    bound.reset();
    auto b = std::make_shared<BoundInput>();
    b->input = input;
    const auto& groups = schedule.groups();
    const std::int64_t num_cycles = schedule.num_cycles();
    const auto num_groups = static_cast<std::int64_t>(groups.size());
    b->group_inputs.resize(groups.size());
    b->group_meta.resize(groups.size());
    perf::parallel_chunks(perf::chunk_count(threads, num_groups), num_groups,
                          [&](std::int64_t, std::int64_t g0, std::int64_t g1) {
      GroupWork work;
      for (std::int64_t gi = g0; gi < g1; ++gi) {
        const auto g = static_cast<std::size_t>(gi);
        const std::int64_t rows = static_cast<std::int64_t>(groups[g].scs.size()) * spec.c;
        auto& gin = b->group_inputs[g];
        gin.assign(static_cast<std::size_t>(num_cycles * rows), 0);
        auto& gm = b->group_meta[g];
        gm.resize(static_cast<std::size_t>(num_cycles));
        for (std::int64_t ci = 0; ci < num_cycles; ++ci) {
          schedule.group_work(ci, static_cast<int>(gi), work);
          std::int32_t* dst = gin.data() + ci * rows;
          for (const auto& in : work.inputs) {
            if (!in.active) continue;  // zero-skip: padded zeros are never streamed
            for (int c = 0; c < spec.c; ++c)
              dst[static_cast<std::size_t>(in.sc_index) * spec.c + static_cast<std::size_t>(c)] =
                  input.ptr(0, c)[std::int64_t{in.h} * spec.iw + in.w];
          }
          gm[static_cast<std::size_t>(ci)] = {work.out_y, work.out_x, work.produces_output};
        }
      }
    });
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
    // Same chunked group walk as RedDesign::run, but each group executes its
    // whole cycle sequence as one batched MVM over the pre-gathered inputs.
    const std::int64_t chunks = perf::chunk_count(threads, num_groups);
    std::vector<arch::RunStats> chunk_stats(static_cast<std::size_t>(chunks));
    perf::parallel_chunks(chunks, num_groups, [&](std::int64_t t, std::int64_t g0,
                                                  std::int64_t g1) {
      arch::RunStats& local = chunk_stats[static_cast<std::size_t>(t)];
      // Thread-local workspace: Monte Carlo trials call run() thousands of
      // times, so the per-call construction cost matters here (unlike the
      // one-shot RedDesign::run).
      thread_local perf::MvmWorkspace ws;
      std::vector<std::int64_t> group_acc(static_cast<std::size_t>(spec.m));
      for (std::int64_t gi = g0; gi < g1; ++gi) {
        const auto partials =
            xbars_[static_cast<std::size_t>(gi)].mvm_batch(bound->group_inputs[static_cast<std::size_t>(gi)],
                                                           num_cycles, prog_->cfg.bit_accurate,
                                                           ws, &local.mvm);
        for (std::int64_t ci = 0; ci < num_cycles; ++ci) {
          // A block spans phases() coalesced cycles (== fold with the
          // lookahead/lookaside window off).
          if (ci % phases == 0) std::fill(group_acc.begin(), group_acc.end(), 0);
          const std::int64_t* p = partials.data() + ci * spec.m;
          for (int m = 0; m < spec.m; ++m) group_acc[static_cast<std::size_t>(m)] += p[m];
          const auto& meta = bound->group_meta[static_cast<std::size_t>(gi)]
                                             [static_cast<std::size_t>(ci)];
          if (meta.produces_output)
            for (int m = 0; m < spec.m; ++m)
              out.data()[m * out_plane + std::int64_t{meta.out_y} * spec.ow() + meta.out_x] =
                  static_cast<std::int32_t>(group_acc[static_cast<std::size_t>(m)]);
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
