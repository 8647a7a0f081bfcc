// red_cli — command-line front end to the RED simulator.
//
//   red_cli layer   --ih 8 --iw 8 --c 512 --m 256 --k 4 --stride 2 --pad 1
//                   [--opad N] [--design zp|pf|red] [--fold N] [--mux N]
//                   [--tiled] [--subarray N] [--breakdown] [--run]
//   red_cli compare --layer GAN_Deconv1 | --ih ... (all three designs)
//   red_cli conv    --ih 64 --iw 64 --c 3 --m 128 --k 5 --stride 2 --pad 2
//   red_cli network --net dcgan|sngan|fcn8s [--design ...]
//   red_cli plan    --net dcgan [--design ...] [--chip] [--json] [--out FILE]
//   red_cli table1 | fig4
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "red/arch/chip.h"
#include "red/arch/conv_engine.h"
#include "red/common/error.h"
#include "red/common/log.h"
#include "red/plan/plan.h"
#include "red/common/flags.h"
#include "red/common/rng.h"
#include "red/common/string_util.h"
#include "red/core/designs.h"
#include "red/explore/sweep.h"
#include "red/fault/campaign.h"
#include "red/nn/deconv_reference.h"
#include "red/opt/optimizer.h"
#include "red/opt/pareto.h"
#include "red/report/evaluation.h"
#include "red/report/figures.h"
#include "red/core/red_design.h"
#include "red/report/export.h"
#include "red/report/json.h"
#include "red/sim/engine.h"
#include "red/sim/pipeline.h"
#include "red/store/interrupt.h"
#include "red/store/io.h"
#include "red/store/result_store.h"
#include "red/sim/streaming.h"
#include "red/sim/trace.h"
#include "red/sim/verifier.h"
#include "red/telemetry/metrics.h"
#include "red/telemetry/tracer.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"

namespace {

using namespace red;

void usage() {
  std::cout <<
      R"(red_cli — RED deconvolution-accelerator simulator

commands:
  layer     evaluate one deconv layer on one design
  compare   evaluate one deconv layer on all three designs
  conv      evaluate a regular conv layer on the shared conv engine
  network   evaluate a whole deconv stack (dcgan | sngan | fcn8s)
  plan      compile the mapping plan of a stack (--net) or one layer and
            print it; always round-trips through JSON and verifies the
            fingerprint [--chip [--banks N] [--bank-subarrays N]]
            [--json] [--out FILE]
  throughput  stream a batch through a programmed stack [--images N]
              [--div N (GAN stacks)] [--threads N] [--no-check]
              (reports fill, interval, img/s)
  sweep     Pareto grid over fold x mux [--folds 1,2,4,8] [--muxes 4,8,16] [--threads N]
            [--store FILE]  (persistent evaluation cache, shared with optimize)
            [--json] [--out FILE]  (full SweepStats + StoreReport counters)
  faults    deterministic fault-injection campaign with graceful-degradation
            curves [--rates 0,0.001,0.01] [--wl-rate R] [--bl-rate R]
            [--drift S] [--trials N] [--seed N] [--threads N]
            [--spares N | --spare-rows N --spare-cols N] [--remap]
            [--retries N] [--json] [--out FILE]
  optimize  design-space search over declared axes; prints the Pareto frontier
            [--net NAME | --layer NAME | geometry] [--design zp|pf|red|all]
            [--folds L] [--muxes L] [--tile-sides L] [--adc-bits L]
            [--weight-bits L] [--activation-bits L] [--spare-lines L]
            [--lookaheads L] [--lookasides L]
            [--strategy exhaustive|anneal|evolve] [--objective latency,area]
            [--weights L] [--budget N] [--seed N] [--threads N]
            [--chip-fit [--banks N] [--bank-subarrays N]] [--max-sc N]
            [--max-area MM2] [--max-energy UJ] [--min-fault-snr DB]
            [--checkpoint FILE [--checkpoint-every N]] [--store FILE]
            [--shard I/N] [--timeout MS] [--json] [--out FILE]
            SIGINT/SIGTERM or --timeout checkpoint and exit 7 at the next
            batch boundary; rerun with the same --checkpoint to resume
  merge-checkpoints  fuse shard checkpoint files into one resumable
            checkpoint: merge-checkpoints CKPT... --out MERGED plus the
            exact space/objective/strategy flags the shards ran with;
            corrupt or mismatched shards are quarantined, not fatal
            [--json] [--out FILE]
  verify    run all designs functionally and check vs golden + activity model
  trace     print the zero-skipping schedule (Fig. 5(c) style) [--cycles N]
  export    write every table/figure to files [--out DIR] [--format csv|md|txt]
  table1    print the Table I benchmarks
  fig4      print the Fig. 4 redundancy curves

common flags:
  --ih --iw --c --m --k (--kh --kw) --stride --pad --opad   layer geometry
  --layer <Table-I name>                                    use a benchmark layer
  --design zp|pf|red      design to evaluate (default red)
  --fold N --mux N        RED fold override / mux ratio
  --lookahead H --lookaside D   Bit-Tactical schedule promotion (0 = off;
                          both > 0 coalesce fold phases by 1+min(H,D))
  --tiled [--subarray N]  price bounded physical subarrays
  --breakdown             per-component Table II breakdown
  --run                   also execute functionally and verify vs golden

observability (every command; strictly observe-only, results stay bit-identical):
  --metrics FILE          write a metrics snapshot (JSON) and, in text mode,
                          print the metrics table after the command output
  --trace FILE            write a Chrome trace-event JSON (load in Perfetto)
  --log-timestamps        prefix log lines with monotonic elapsed ms
  RED_LOG_LEVEL           env: debug | info | warn | error (unknown = config error)

exit codes:
  0 ok            1 usage             2 internal error   3 verification failed
  4 bad config    5 artifact mismatch 6 I/O error        7 interrupted (checkpointed)
)";
}

/// Write a result document to --out durably (temp + fsync + rename): a
/// crash mid-write can never leave a torn artifact behind.
void write_out_file(const Flags& flags, const std::string& content, bool json_mode) {
  const std::string path = flags.get_string("out");
  store::write_file_atomic(path, content);
  (json_mode ? std::cerr : std::cout) << "wrote " << path << '\n';
}

arch::DesignConfig config_from(const Flags& flags) {
  arch::DesignConfig cfg;
  cfg.mux_ratio = static_cast<int>(flags.get_int("mux", cfg.mux_ratio));
  cfg.red_fold = static_cast<int>(flags.get_int("fold", 0));
  cfg.lookahead_h = static_cast<int>(flags.get_int("lookahead", 0));
  cfg.lookaside_d = static_cast<int>(flags.get_int("lookaside", 0));
  cfg.tiled = flags.get_bool("tiled");
  const auto side = flags.get_int("subarray", 128);
  cfg.tiling = {side, side};
  cfg.quant.abits = static_cast<int>(flags.get_int("abits", cfg.quant.abits));
  cfg.quant.wbits = static_cast<int>(flags.get_int("wbits", cfg.quant.wbits));
  // Fault environment + mitigation provision (shared by `faults` campaigns
  // and the optimize min_fault_snr constraint).
  cfg.fault.model.sa0_rate = flags.get_double("sa0", 0.0);
  cfg.fault.model.sa1_rate = flags.get_double("sa1", 0.0);
  cfg.fault.model.wordline_rate = flags.get_double("wl-rate", 0.0);
  cfg.fault.model.bitline_rate = flags.get_double("bl-rate", 0.0);
  cfg.fault.model.drift_sigma = flags.get_double("drift", 0.0);
  const auto spares = flags.get_int("spares", 0);
  cfg.fault.repair.spare_rows = static_cast<int>(flags.get_int("spare-rows", spares));
  cfg.fault.repair.spare_cols = static_cast<int>(flags.get_int("spare-cols", spares));
  cfg.fault.repair.remap_rows = flags.get_bool("remap");
  cfg.fault.repair.verify_retries = static_cast<int>(flags.get_int("retries", 0));
  return cfg;
}

core::DesignKind kind_from(const Flags& flags) {
  return core::kind_from_name(flags.get_string("design", "red"));
}

nn::DeconvLayerSpec layer_from(const Flags& flags) {
  if (flags.has("layer")) {
    const std::string name = flags.get_string("layer");
    for (const auto& l : workloads::table1_benchmarks())
      if (l.name == name) return l;
    throw ConfigError("unknown --layer '" + name + "' (see `red_cli table1`)");
  }
  nn::DeconvLayerSpec spec;
  spec.name = "cli_layer";
  spec.ih = static_cast<int>(flags.get_int("ih", 8));
  spec.iw = static_cast<int>(flags.get_int("iw", spec.ih));
  spec.c = static_cast<int>(flags.get_int("c", 64));
  spec.m = static_cast<int>(flags.get_int("m", 64));
  spec.kh = static_cast<int>(flags.get_int("kh", flags.get_int("k", 4)));
  spec.kw = static_cast<int>(flags.get_int("kw", flags.get_int("k", 4)));
  spec.stride = static_cast<int>(flags.get_int("stride", 2));
  spec.pad = static_cast<int>(flags.get_int("pad", 1));
  spec.output_pad = static_cast<int>(flags.get_int("opad", 0));
  spec.validate();
  return spec;
}

void print_cost(const arch::CostReport& cost, bool breakdown) {
  std::cout << cost.design() << ": " << cost.cycles() << " cycles, "
            << format_double(cost.total_latency().value() / 1e3, 3) << " us, "
            << format_double(cost.total_energy().value() / 1e6, 4) << " uJ, "
            << format_double(cost.total_area().value() / 1e6, 4) << " mm^2\n";
  if (breakdown) std::cout << report::component_breakdown(cost).to_ascii();
}

int cmd_layer(const Flags& flags) {
  const auto spec = layer_from(flags);
  const auto cfg = config_from(flags);
  const auto design = core::make_design(kind_from(flags), cfg);
  std::cout << spec.to_string() << '\n';
  print_cost(design->cost(spec), flags.get_bool("breakdown"));
  if (flags.get_bool("run")) {
    Rng rng(1);
    const auto input = workloads::make_input(spec, rng, 1, 7);
    const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
    const auto result = sim::simulate(*design, spec, input, kernel, /*check=*/true);
    const bool exact =
        first_mismatch(nn::deconv_reference(spec, input, kernel), result.output).empty();
    std::cout << "functional: " << (exact ? "bit-exact vs golden" : "MISMATCH") << ", measured "
              << result.measured.cycles << " cycles\n";
  }
  return 0;
}

int cmd_compare(const Flags& flags) {
  const auto spec = layer_from(flags);
  const auto cfg = config_from(flags);
  const auto cmp = report::compare_layer(spec, cfg);
  if (flags.get_bool("json")) {
    std::cout << report::to_json(cmp);
    return 0;
  }
  std::cout << spec.to_string() << '\n';
  print_cost(cmp.zero_padding, false);
  print_cost(cmp.padding_free, false);
  print_cost(cmp.red, flags.get_bool("breakdown"));
  std::cout << "RED vs zero-padding: " << format_speedup(cmp.red_speedup_vs_zp())
            << " speedup, " << format_percent(cmp.red_energy_saving_vs_zp(), 1)
            << " energy saving, " << format_percent(cmp.red_area_overhead_vs_zp(), 1)
            << " area overhead\n";
  return 0;
}

int cmd_conv(const Flags& flags) {
  nn::ConvLayerSpec spec;
  spec.name = "cli_conv";
  spec.ih = static_cast<int>(flags.get_int("ih", 32));
  spec.iw = static_cast<int>(flags.get_int("iw", spec.ih));
  spec.c = static_cast<int>(flags.get_int("c", 64));
  spec.m = static_cast<int>(flags.get_int("m", 64));
  spec.kh = static_cast<int>(flags.get_int("kh", flags.get_int("k", 3)));
  spec.kw = static_cast<int>(flags.get_int("kw", flags.get_int("k", 3)));
  spec.stride = static_cast<int>(flags.get_int("stride", 1));
  spec.pad = static_cast<int>(flags.get_int("pad", 1));
  spec.validate();
  const arch::ConvEngine engine(config_from(flags));
  std::cout << spec.to_string() << '\n';
  print_cost(engine.cost(spec), flags.get_bool("breakdown"));
  return 0;
}

int cmd_sweep(const Flags& flags) {
  const auto spec = layer_from(flags);
  const auto base_cfg = config_from(flags);
  const auto kind = kind_from(flags);
  const int threads = static_cast<int>(flags.get_int("threads", 4));

  const auto folds = parse_int_list(flags.get_string("folds", "1,2,4,8"), "folds");
  const auto muxes = parse_int_list(flags.get_string("muxes", "4,8,16"), "muxes");

  std::vector<explore::SweepPoint> grid;
  for (std::int64_t fold : folds)
    for (std::int64_t mux : muxes) {
      explore::SweepPoint p;
      p.kind = kind;
      p.cfg = base_cfg;
      p.cfg.red_fold = static_cast<int>(fold);
      p.cfg.mux_ratio = static_cast<int>(mux);
      p.spec = spec;
      grid.push_back(p);
    }
  explore::SweepDriver driver(threads);
  std::shared_ptr<store::ResultStore> result_store;
  if (flags.has("store")) {
    result_store = std::make_shared<store::ResultStore>(flags.get_string("store"));
    driver.attach_store(result_store);
  }
  const auto outcomes = driver.evaluate(grid);

  std::vector<std::vector<double>> rows;
  for (const auto& o : outcomes)
    rows.push_back({o.cost.total_latency().value(), o.cost.total_area().value()});
  const auto pareto = opt::non_dominated_mask(rows);

  // Machine-readable twin of the table, carrying the full SweepStats (and
  // StoreReport when a store is attached) alongside every grid point.
  auto result_json = [&] {
    report::JsonWriter w(0);
    w.open();
    w.field("type", "red_sweep_result");
    w.field("layer", spec.name);
    w.field("design", core::kind_to_name(kind));
    w.field("threads", std::int64_t{threads});
    w.array("points");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& c = outcomes[i].cost;
      w.item_object();
      w.field("fold", std::int64_t{grid[i].cfg.red_fold});
      w.field("mux", std::int64_t{grid[i].cfg.mux_ratio});
      w.field("sc_units", std::int64_t{outcomes[i].activity.sc_units});
      w.field("cycles", c.cycles());
      w.field("latency_ns", c.total_latency().value());
      w.field("energy_pj", c.total_energy().value());
      w.field("area_um2", c.total_area().value());
      w.field("pareto", static_cast<bool>(pareto[i]));
      w.close(false);
    }
    w.close_array();
    const auto& st = driver.stats();
    w.object("stats");
    w.field("points", st.points);
    w.field("evaluated", st.evaluated);
    w.field("cache_hits", st.cache_hits);
    w.field("cached_entries", st.cached_entries);
    w.field("evictions", st.evictions);
    w.field("store_hits", st.store_hits);
    w.field("store_rejects", st.store_rejects);
    w.close(false);
    if (result_store != nullptr) {
      const auto rep = result_store->report();
      w.object("store");
      w.field("path", result_store->path());
      w.field("entries", result_store->entries());
      w.field("records_loaded", rep.records_loaded);
      w.field("records_quarantined", rep.records_quarantined);
      w.field("bytes_skipped", rep.bytes_skipped);
      w.field("appended", rep.appended);
      w.close(false);
    }
    w.close();
    return w.str();
  };

  const bool json_mode = flags.get_bool("json");
  if (json_mode) {
    std::cout << result_json();
  } else {
    std::cout << spec.to_string() << '\n';
    TextTable t({"fold", "mux", "sub-arrays", "cycles", "latency (us)", "energy (uJ)",
                 "area (mm^2)", "Pareto"});
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& c = outcomes[i].cost;
      t.add_row({std::to_string(grid[i].cfg.red_fold), std::to_string(grid[i].cfg.mux_ratio),
                 std::to_string(outcomes[i].activity.sc_units),
                 std::to_string(outcomes[i].cost.cycles()),
                 format_double(c.total_latency().value() / 1e3, 2),
                 format_double(c.total_energy().value() / 1e6, 3),
                 format_double(c.total_area().value() / 1e6, 4), pareto[i] ? "*" : ""});
    }
    std::cout << t.to_ascii() << "sweep: " << driver.stats().evaluated << " evaluated, "
              << driver.stats().cache_hits << " from cache, " << driver.stats().store_hits
              << " from store, " << threads << " threads\n";
    if (result_store != nullptr)
      std::cout << "store: " << result_store->path() << " (" << result_store->entries()
                << " entries, " << result_store->report().appended << " appended)\n";
  }
  if (flags.has("out")) write_out_file(flags, result_json(), json_mode);
  return 0;
}

/// Build the search space an `optimize` run explores: base point from the
/// shared config flags, one axis per value-list flag. With no axis flags the
/// classic fold x mux grid is searched.
opt::SearchSpace space_from(const Flags& flags, const std::vector<nn::DeconvLayerSpec>& stack) {
  const std::string design = flags.get_string("design", "red");
  opt::SearchSpace space(stack, design == "all" ? core::DesignKind::kRed : kind_from(flags),
                         config_from(flags));
  if (design == "all")
    space.add_axis({opt::AxisField::kKind,
                    {static_cast<std::int64_t>(core::DesignKind::kZeroPadding),
                     static_cast<std::int64_t>(core::DesignKind::kPaddingFree),
                     static_cast<std::int64_t>(core::DesignKind::kRed)}});
  const struct {
    const char* flag;
    opt::AxisField field;
  } axis_flags[] = {{"folds", opt::AxisField::kRedFold},
                    {"muxes", opt::AxisField::kMuxRatio},
                    {"tile-sides", opt::AxisField::kSubarraySide},
                    {"adc-bits", opt::AxisField::kAdcBits},
                    {"weight-bits", opt::AxisField::kWeightBits},
                    {"activation-bits", opt::AxisField::kActivationBits},
                    {"spare-lines", opt::AxisField::kSpareLines},
                    {"lookaheads", opt::AxisField::kLookahead},
                    {"lookasides", opt::AxisField::kLookaside}};
  bool any = false;
  for (const auto& a : axis_flags)
    if (flags.has(a.flag)) {
      space.add_axis({a.field, parse_int_list(flags.get_string(a.flag), a.flag)});
      any = true;
    }
  if (!any) {
    space.add_axis({opt::AxisField::kRedFold, {1, 2, 4, 8}});
    space.add_axis({opt::AxisField::kMuxRatio, {4, 8, 16}});
  }
  return space;
}

/// Everything the optimize-family commands (`optimize`, `merge-checkpoints`)
/// reconstruct from the shared flags: workload, space, objective,
/// constraints, tuned options, and a ready optimizer. merge-checkpoints must
/// rebuild the exact search identity the shards ran with, so both commands
/// go through this one builder.
struct OptimizeSetup {
  std::vector<nn::DeconvLayerSpec> stack;
  std::string title;
  opt::OptimizerOptions options;
  std::unique_ptr<opt::Optimizer> optimizer;
};

OptimizeSetup optimize_setup_from(const Flags& flags) {
  OptimizeSetup s;
  // Workload: a whole stack (--net) or one layer (--layer / geometry).
  if (flags.has("net")) {
    const std::string net = flags.get_string("net");
    s.stack = workloads::named_stack(net, static_cast<int>(flags.get_int("div", 1)));
    s.title = net;
  } else {
    s.stack = {layer_from(flags)};
    s.title = s.stack.front().name;
  }

  opt::SearchSpace space = space_from(flags, s.stack);
  auto objective = opt::Objective::parse(flags.get_string("objective", "latency,area"),
                                         flags.get_string("weights", ""));

  std::vector<opt::Constraint> constraints;
  if (flags.get_bool("chip-fit")) {
    arch::ChipConfig chip;
    chip.banks = static_cast<int>(flags.get_int("banks", chip.banks));
    chip.subarrays_per_bank = flags.get_int("bank-subarrays", chip.subarrays_per_bank);
    const auto side = flags.get_int("subarray", 128);
    chip.subarray = {side, side};
    constraints.push_back(opt::fits_chip(chip));
  }
  if (flags.has("max-sc")) constraints.push_back(opt::max_sc_units(flags.get_int("max-sc", 0)));
  if (flags.has("max-area"))
    constraints.push_back(opt::max_area_mm2(flags.get_double("max-area", 0.0)));
  if (flags.has("max-energy"))
    constraints.push_back(opt::max_energy_uj(flags.get_double("max-energy", 0.0)));
  if (flags.has("min-fault-snr"))
    constraints.push_back(opt::min_fault_snr(flags.get_double("min-fault-snr", 0.0)));

  opt::OptimizerOptions& options = s.options;
  options.strategy = flags.get_string("strategy", "exhaustive");
  options.budget = flags.get_int("budget", 0);
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  options.threads = static_cast<int>(flags.get_int("threads", 4));
  options.search.population = static_cast<int>(flags.get_int("population", 16));
  options.search.batch = static_cast<int>(flags.get_int("batch", 8));
  options.sweep_cache_cap = flags.get_int("cache-cap", 0);
  options.timeout_ms = flags.get_double("timeout", 0.0);
  if (flags.has("shard")) {
    const std::string shard = flags.get_string("shard");
    const auto slash = shard.find('/');
    try {
      if (slash == std::string::npos || slash == 0 || slash + 1 == shard.size())
        throw ConfigError("");
      options.search.shard_index = std::stoi(shard.substr(0, slash));
      options.search.shard_count = std::stoi(shard.substr(slash + 1));
    } catch (const std::exception&) {
      throw ConfigError("--shard expects INDEX/COUNT (e.g. 0/4), got '" + shard + "'");
    }
  }

  s.optimizer = std::make_unique<opt::Optimizer>(std::move(space), std::move(objective),
                                                 std::move(constraints), options);
  return s;
}

/// One frontier row's axis values, rendered for a table or JSON document.
std::vector<std::string> axis_cells(const opt::SearchSpace& sp, const opt::CandidateEval& e) {
  std::vector<std::string> cells;
  for (std::size_t a = 0; a < sp.axes().size(); ++a) {
    const auto& axis = sp.axes()[a];
    std::int64_t v = axis.values[static_cast<std::size_t>(e.candidate.index[a])];
    cells.push_back(axis.field == opt::AxisField::kKind
                        ? core::kind_to_name(static_cast<core::DesignKind>(v))
                        : std::to_string(v));
  }
  return cells;
}

/// The machine-readable frontier array — one emitter shared by `optimize`
/// and `merge-checkpoints`, so the shard-equality tests can compare the two
/// documents' frontiers byte for byte.
void emit_frontier(report::JsonWriter& w, const opt::SearchSpace& sp,
                   const std::vector<opt::CandidateEval>& frontier) {
  w.array("frontier");
  for (const auto& e : frontier) {
    w.item_object();
    w.field("ordinal", e.ordinal);
    w.field("fingerprint", e.fingerprint);
    const auto cells = axis_cells(sp, e);
    for (std::size_t a = 0; a < sp.axes().size(); ++a)
      w.field(opt::axis_field_name(sp.axes()[a].field), cells[a]);
    w.array("objectives");
    for (double v : e.objectives) w.item_number(v);
    w.close_array();
    w.field("latency_ns", e.cost.latency_ns);
    w.field("energy_pj", e.cost.energy_pj);
    w.field("area_um2", e.cost.area_um2);
    w.field("cycles", e.cost.cycles);
    w.field("max_sc_units", e.cost.max_sc_units);
    w.close(false);
  }
  w.close_array();
}

int cmd_optimize(const Flags& flags) {
  OptimizeSetup setup = optimize_setup_from(flags);
  opt::Optimizer& optimizer = *setup.optimizer;
  const opt::OptimizerOptions& options = setup.options;

  // --store FILE: persistent evaluation cache shared across runs and shards.
  std::shared_ptr<store::ResultStore> result_store;
  if (flags.has("store")) {
    result_store = std::make_shared<store::ResultStore>(flags.get_string("store"));
    if (!result_store->report().clean())
      log_warn("store: quarantined " +
               std::to_string(result_store->report().records_quarantined) +
               " record(s), skipped " + std::to_string(result_store->report().bytes_skipped) +
               " byte(s) of " + result_store->path());
    optimizer.attach_store(result_store);
  }

  // SIGINT/SIGTERM checkpoint-and-exit instead of dying mid-search.
  store::install_interrupt_handlers();

  // --checkpoint FILE: resume when the file exists, and keep it refreshed.
  const std::string checkpoint = flags.get_string("checkpoint", "");
  opt::OptimizerResult result = [&] {
    if (checkpoint.empty()) return optimizer.run();
    optimizer.set_checkpoint_file(checkpoint, flags.get_int("checkpoint-every", 64));
    const auto text = store::read_file_if_exists(checkpoint);
    if (!text) return optimizer.run();
    log_info("resuming from checkpoint " + checkpoint);
    return optimizer.resume(*text);
  }();

  const auto& sp = optimizer.space();
  auto axis_values = [&](const opt::CandidateEval& e) { return axis_cells(sp, e); };

  // The JSON document is the machine-readable twin of the table: printed
  // under --json, and written to --out in either mode (cmd_plan convention).
  auto result_json = [&] {
    report::JsonWriter w(0);
    w.open();
    w.field("type", "red_opt_result");
    w.field("workload", setup.title);
    w.field("strategy", options.strategy);
    w.field("objective", optimizer.objective().to_string());
    w.field("seed", options.seed);
    w.field("fingerprint", optimizer.fingerprint());
    w.field("space_size", sp.size());
    w.field("complete", result.complete);
    w.field("interrupted", result.interrupted);
    emit_frontier(w, sp, result.frontier);
    w.object("stats");
    w.field("batches", result.stats.batches);
    w.field("proposals", result.stats.proposals);
    w.field("evaluations", result.stats.evaluations);
    w.field("repeats", result.stats.repeats);
    w.field("pruned", result.stats.pruned);
    w.field("sweep_points", optimizer.sweep_stats().points);
    w.field("sweep_evaluated", optimizer.sweep_stats().evaluated);
    w.field("sweep_cache_hits", optimizer.sweep_stats().cache_hits);
    w.field("sweep_cached_entries", optimizer.sweep_stats().cached_entries);
    w.field("sweep_evictions", optimizer.sweep_stats().evictions);
    w.field("store_hits", optimizer.sweep_stats().store_hits);
    w.field("store_rejects", optimizer.sweep_stats().store_rejects);
    w.close(false);
    if (result_store != nullptr) {
      const auto rep = result_store->report();
      w.object("store");
      w.field("path", result_store->path());
      w.field("entries", result_store->entries());
      w.field("records_loaded", rep.records_loaded);
      w.field("records_quarantined", rep.records_quarantined);
      w.field("bytes_skipped", rep.bytes_skipped);
      w.field("appended", rep.appended);
      w.close(false);
    }
    w.close();
    return w.str();
  };

  const bool json_mode = flags.get_bool("json");
  if (json_mode) {
    std::cout << result_json();
  } else {
    std::cout << "optimize " << setup.title << " (" << setup.stack.size()
              << (setup.stack.size() == 1 ? " layer" : " layers") << "): strategy "
              << options.strategy << ", objective " << optimizer.objective().to_string()
              << ", space " << sp.size() << " points, seed " << options.seed << '\n';
    std::vector<std::string> header;
    for (const auto& axis : sp.axes()) header.push_back(opt::axis_field_name(axis.field));
    for (const auto& term : optimizer.objective().terms())
      header.push_back(opt::metric_name(term.metric));
    header.push_back("latency (us)");
    header.push_back("energy (uJ)");
    header.push_back("area (mm^2)");
    header.push_back("max SC");
    TextTable t(header);
    for (const auto& e : result.frontier) {
      auto row = axis_values(e);
      for (double v : e.objectives) row.push_back(format_double(v, 4));
      row.push_back(format_double(e.cost.latency_ns / 1e3, 2));
      row.push_back(format_double(e.cost.energy_pj / 1e6, 3));
      row.push_back(format_double(e.cost.area_um2 / 1e6, 4));
      row.push_back(std::to_string(e.cost.max_sc_units));
      t.add_row(row);
    }
    std::cout << t.to_ascii();
    std::cout << "frontier: " << result.frontier.size() << " of "
              << result.state.evaluated.size() << " evaluated (" << result.stats.evaluations
              << " this run, " << result.stats.pruned << " pruned, " << result.stats.repeats
              << " repeat proposals, " << optimizer.sweep_stats().cache_hits
              << " sweep-cache hits, " << optimizer.sweep_stats().store_hits
              << " store hits), "
              << (result.interrupted ? "interrupted (checkpoint written)"
                  : result.complete  ? "space explored"
                                     : "budget reached")
              << '\n';
    if (!checkpoint.empty()) std::cout << "checkpoint: " << checkpoint << '\n';
    if (result_store != nullptr)
      std::cout << "store: " << result_store->path() << " (" << result_store->entries()
                << " entries, " << result_store->report().appended << " appended)\n";
  }
  if (flags.has("out")) write_out_file(flags, result_json(), json_mode);
  // A distinct exit code lets wrappers tell "finished" from "stopped early,
  // rerun me with the same --checkpoint to continue".
  return result.interrupted ? 7 : 0;
}

int cmd_merge_checkpoints(const Flags& flags) {
  const auto paths = std::vector<std::string>(flags.positional().begin() + 1,
                                              flags.positional().end());
  if (paths.empty())
    throw ConfigError("merge-checkpoints needs at least one checkpoint file argument");

  // Rebuild the search identity the shards ran with (same flags as
  // `optimize`); a shard whose fingerprint disagrees is quarantined below.
  OptimizeSetup setup = optimize_setup_from(flags);
  opt::Optimizer& optimizer = *setup.optimizer;

  // A missing or unreadable file is quarantined exactly like a corrupt one:
  // the merge reports it and fuses the shards it can prove intact.
  std::vector<std::pair<std::string, std::string>> documents;
  for (const auto& path : paths) {
    try {
      documents.emplace_back(path, store::read_file(path));
    } catch (const IoError& e) {
      documents.emplace_back(path, "");  // load_state rejects it with a parse error
      log_warn("merge: cannot read " + path + ": " + e.what());
    }
  }
  const opt::MergeResult merged = optimizer.merge_states(documents);
  const auto frontier = optimizer.frontier_of(merged.state);
  const auto& sp = optimizer.space();

  auto result_json = [&] {
    report::JsonWriter w(0);
    w.open();
    w.field("type", "red_opt_merge");
    w.field("workload", setup.title);
    w.field("fingerprint", optimizer.fingerprint());
    w.field("space_size", sp.size());
    w.field("shards_merged", merged.shards_merged);
    w.field("duplicate_evals", merged.duplicate_evals);
    w.field("evaluations", static_cast<std::int64_t>(merged.state.evaluated.size()));
    w.field("pruned", static_cast<std::int64_t>(merged.state.pruned.size()));
    emit_frontier(w, sp, frontier);
    w.array("quarantined");
    for (const auto& q : merged.quarantined) {
      w.item_object();
      w.field("name", q.name);
      w.field("reason", q.reason);
      w.close(false);
    }
    w.close_array();
    w.close();
    return w.str();
  };

  const bool json_mode = flags.get_bool("json");
  if (json_mode) {
    std::cout << result_json();
  } else {
    std::cout << "merged " << merged.shards_merged << " of " << paths.size()
              << " checkpoint(s): " << merged.state.evaluated.size() << " evaluations ("
              << merged.duplicate_evals << " duplicates dropped), "
              << merged.state.pruned.size() << " pruned, frontier " << frontier.size()
              << " point(s)\n";
    for (const auto& q : merged.quarantined)
      std::cout << "  quarantined " << q.name << ": " << q.reason << '\n';
  }
  if (flags.has("out")) {
    // The merged artifact is itself a checkpoint: resume it unsharded to
    // fill any gaps quarantined shards left.
    write_out_file(flags, optimizer.checkpoint_json(merged.state), json_mode);
  }
  return 0;
}

int cmd_plan(const Flags& flags) {
  const auto kind = kind_from(flags);
  const auto cfg = config_from(flags);

  // Stack from --net, or a single layer from --layer / geometry flags.
  std::vector<nn::DeconvLayerSpec> stack;
  std::string title;
  if (flags.has("net")) {
    const std::string net = flags.get_string("net");
    const int div = static_cast<int>(flags.get_int("div", 1));
    stack = workloads::named_stack(net, div);
    title = net;
  } else {
    stack = {layer_from(flags)};
    title = stack.front().name;
  }
  const auto splan = plan::plan_stack(kind, stack, cfg);
  const auto json = report::to_json(splan);

  if (flags.get_bool("json")) {
    std::cout << json;
  } else {
    std::cout << "compiled plan: " << title << " on "
              << splan.layers.front().activity.design_name << " (" << splan.layers.size()
              << (splan.layers.size() == 1 ? " layer)\n" : " layers)\n");
    TextTable t({"layer", "fold", "groups", "sub-arrays", "macro", "tiles", "cycles",
                 "fingerprint"});
    for (const auto& lp : splan.layers) {
      const auto& a = lp.activity;
      std::int64_t tile_count = 0;
      for (std::size_t mi = 0; mi < lp.tiles.size(); ++mi)
        tile_count += a.macros[mi].count * lp.tiles[mi].tiles();
      const std::string macro = std::to_string(lp.layout.block_rows) + "x" +
                                std::to_string(lp.layout.block_cols) +
                                (lp.layout.blocks > 1
                                     ? " x" + std::to_string(lp.layout.blocks) + " SC"
                                     : "");
      t.add_row({lp.spec.name, std::to_string(lp.fold), std::to_string(a.groups),
                 std::to_string(a.sc_units), macro, std::to_string(tile_count),
                 std::to_string(a.cycles), lp.fingerprint()});
    }
    std::cout << t.to_ascii();
    std::cout << "stack fingerprint: " << splan.fingerprint() << '\n';
  }

  // Optional chip placement of the compiled plan (suppressed under --json:
  // stdout must stay one parseable document).
  if (flags.get_bool("chip") && !flags.get_bool("json")) {
    arch::ChipConfig chip;
    chip.banks = static_cast<int>(flags.get_int("banks", chip.banks));
    chip.subarrays_per_bank = flags.get_int("bank-subarrays", chip.subarrays_per_bank);
    const auto side = flags.get_int("subarray", 128);
    chip.subarray = {side, side};
    const auto cp = arch::plan_chip(splan, chip);
    std::cout << "chip placement (" << chip.banks << " banks x " << chip.subarrays_per_bank
              << " subarrays):\n";
    TextTable t({"layer", "sub-arrays", "bank", "slots"});
    for (const auto& l : cp.layers)
      t.add_row({l.layer, std::to_string(l.subarrays),
                 l.placed() ? std::to_string(l.bank) : "-",
                 l.placed() ? std::to_string(l.subarray_begin) + ".." +
                                  std::to_string(l.subarray_end - 1)
                            : "unplaced"});
    std::cout << t.to_ascii();
    std::cout << (cp.fits ? "fits" : "DOES NOT FIT") << ": " << cp.required_subarrays << "/"
              << cp.available_subarrays << " subarrays, " << cp.banks_used << " banks used, "
              << format_percent(cp.cell_utilization(), 1) << " cell utilization\n";
    for (const auto& d : cp.diagnostics) std::cout << "  ! " << d << '\n';
  }

  // Round-trip proof: the exported JSON parses back to an equal fingerprint.
  const auto back = report::stack_plan_from_json(json);
  if (back.fingerprint() != splan.fingerprint())
    throw MismatchError("plan JSON round-trip changed the fingerprint");
  if (!flags.get_bool("json"))
    std::cout << "JSON round-trip: ok (fingerprint " << back.fingerprint() << ")\n";

  if (flags.has("out")) write_out_file(flags, json, flags.get_bool("json"));
  return 0;
}

int cmd_verify(const Flags& flags) {
  const auto spec = layer_from(flags);
  const auto cfg = config_from(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto report = sim::verify_layer(spec, seed, cfg);
  std::cout << report.summary() << '\n';
  for (const auto& v : report.verdicts)
    for (const auto& issue : v.issues) std::cout << "  " << v.design << ": " << issue << '\n';
  return report.all_passed() ? 0 : 3;
}

int cmd_trace(const Flags& flags) {
  const auto spec = layer_from(flags);
  const auto cfg = config_from(flags);
  const core::RedDesign red(cfg);
  const core::ZeroSkipSchedule schedule(spec, red.fold_for(spec), cfg.lookahead_h,
                                        cfg.lookaside_d);
  sim::TraceOptions opts;
  opts.max_cycles = flags.get_int("cycles", 16);
  std::cout << spec.to_string() << "\nZero-skipping schedule (fold " << schedule.fold()
            << ", window " << schedule.window() << ", " << schedule.num_cycles()
            << " cycles):\n"
            << sim::render_schedule_trace(schedule, opts);
  return 0;
}

int cmd_export(const Flags& flags) {
  const std::string dir = flags.get_string("out", "results");
  const std::string fmt_name = flags.get_string("format", "csv");
  report::ExportFormat fmt = report::ExportFormat::kCsv;
  if (fmt_name == "md") fmt = report::ExportFormat::kMarkdown;
  else if (fmt_name == "txt") fmt = report::ExportFormat::kAscii;
  else if (fmt_name != "csv") throw ConfigError("unknown --format (csv | md | txt)");
  const auto written = report::export_all_figures(dir, fmt);
  for (const auto& p : written) std::cout << "wrote " << p.string() << '\n';
  return 0;
}

int cmd_network(const Flags& flags) {
  const std::string net = flags.get_string("net", "dcgan");
  const auto stack = workloads::named_stack(net);
  const auto r = sim::evaluate_pipeline(kind_from(flags), stack, config_from(flags));
  std::cout << net << " on " << r.design_name << ":\n";
  for (const auto& s : r.stages)
    std::cout << "  " << s.spec.name << ": " << s.cost.cycles() << " cycles, "
              << format_double(s.cost.total_latency().value() / 1e3, 2) << " us\n";
  std::cout << "sequential " << format_double(r.sequential_latency.value() / 1e3, 2)
            << " us, interval " << format_double(r.initiation_interval.value() / 1e3, 2)
            << " us, " << format_double(r.throughput_img_per_s(), 0) << " img/s, "
            << format_double(r.energy_per_image.value() / 1e6, 3) << " uJ/img\n";
  return 0;
}

int cmd_throughput(const Flags& flags) {
  const std::string net = flags.get_string("net", "dcgan");
  const int div = static_cast<int>(flags.get_int("div", 16));
  const auto stack = workloads::named_stack(net, div);
  const auto kind = kind_from(flags);
  const auto cfg = config_from(flags);
  const int images_n = static_cast<int>(flags.get_int("images", 8));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  if (images_n < 1) throw ConfigError("--images must be >= 1");

  const sim::StreamingExecutor executor(kind, cfg, stack,
                                        workloads::make_stack_kernels(stack, seed));
  const auto images = workloads::make_input_batch(stack[0], images_n, seed);
  sim::StreamingOptions opts;
  opts.threads = static_cast<int>(flags.get_int("threads", 4));
  if (opts.threads < 1) throw ConfigError("--threads must be >= 1");
  opts.check = !flags.get_bool("no-check");
  const auto result = executor.stream(images, opts);

  const auto model = sim::evaluate_pipeline(kind, stack, cfg);
  // named_stack scales only the GAN stacks by --div; fcn8s is fixed-size.
  std::cout << net << (net == "fcn8s" ? "" : " (div " + std::to_string(div) + ")") << " on "
            << result.design_name << ": " << images_n << " images through " << result.depth
            << " stages, " << opts.threads << " stage lanes"
            << (opts.check ? ", activity-checked" : "") << '\n';
  const double img_per_s = result.wall_ms > 0.0 ? 1e3 * images_n / result.wall_ms : 0.0;
  std::cout << "measured: batch " << format_double(result.wall_ms, 2) << " ms, fill "
            << format_double(result.fill_ms(), 2) << " ms, steady interval "
            << format_double(result.steady_interval_ms(), 3) << " ms/img, "
            << format_double(img_per_s, 0) << " img/s\n";
  std::cout << "model: fill " << format_double(model.fill_latency.value() / 1e3, 2)
            << " us, interval " << format_double(model.initiation_interval.value() / 1e3, 2)
            << " us, " << format_double(model.throughput_img_per_s(), 0) << " img/s\n";
  std::cout << "activity: " << result.total.cycles << " cycles, "
            << result.total.mvm.conversions << " conversions, " << result.total.overlap_adds
            << " overlap adds across the batch\n";
  return 0;
}

int cmd_faults(const Flags& flags) {
  const auto spec = layer_from(flags);
  const auto cfg = config_from(flags);
  const auto kind = kind_from(flags);

  // The swept axis: per-cell stuck rate, split evenly into SA0/SA1 unless
  // --sa0/--sa1 skew the base model; wordline/bitline/drift ride along fixed.
  const auto rates = parse_double_list(flags.get_string("rates", "0,0.001,0.01"), "rates");
  std::vector<fault::FaultModel> models;
  models.reserve(rates.size());
  for (double r : rates) {
    if (r < 0.0 || r > 1.0)
      throw ConfigError("--rates entries must be in [0, 1], got " + format_double(r, 6));
    fault::FaultModel m = cfg.fault.model;
    m.sa0_rate += r / 2.0;
    m.sa1_rate += r / 2.0;
    models.push_back(m);
  }

  fault::FaultCampaignOptions opts;
  opts.trials = static_cast<int>(flags.get_int("trials", 3));
  opts.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opts.threads = static_cast<int>(flags.get_int("threads", 4));
  if (opts.trials < 1) throw ConfigError("--trials must be >= 1");
  if (opts.threads < 1) throw ConfigError("--threads must be >= 1");

  Rng rng(1);
  const auto input = workloads::make_input(spec, rng, 1, 7);
  const auto kernel = workloads::make_kernel(spec, rng, -7, 7);
  const auto points = fault::run_fault_campaign(kind, cfg, models, cfg.fault.repair, spec,
                                                input, kernel, opts);

  auto result_json = [&] {
    report::JsonWriter w(0);
    w.open();
    w.field("type", "red_fault_campaign");
    w.field("layer", spec.name);
    w.field("design", core::kind_to_name(kind));
    w.field("trials", std::int64_t{opts.trials});
    w.field("base_seed", std::uint64_t{opts.base_seed});
    w.object("repair");
    w.field("spare_rows", std::int64_t{cfg.fault.repair.spare_rows});
    w.field("spare_cols", std::int64_t{cfg.fault.repair.spare_cols});
    w.field("remap_rows", cfg.fault.repair.remap_rows);
    w.field("verify_retries", std::int64_t{cfg.fault.repair.verify_retries});
    w.close(false);
    w.array("degradation");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      w.item_object();
      w.field("stuck_rate", rates[i]);
      w.field("wordline_rate", p.model.wordline_rate);
      w.field("bitline_rate", p.model.bitline_rate);
      w.field("drift_sigma", p.model.drift_sigma);
      w.field("unrepaired_mse", p.mean_mse(false));
      w.field("unrepaired_snr_db", p.mean_snr_db(false));
      w.field("unrepaired_bit_errors", p.mean_bit_errors(false));
      w.field("repaired_mse", p.mean_mse(true));
      w.field("repaired_snr_db", p.mean_snr_db(true));
      w.field("repaired_bit_errors", p.mean_bit_errors(true));
      w.field("repaired_not_worse", p.repaired_not_worse());
      w.close(false);
    }
    w.close_array();
    w.close();
    return w.str();
  };

  if (flags.get_bool("json")) {
    std::cout << result_json();
  } else {
    std::cout << spec.to_string() << '\n'
              << "fault campaign on " << core::kind_to_name(kind) << ": " << rates.size()
              << " rates x " << opts.trials << " trials, repair {spares "
              << cfg.fault.repair.spare_rows << "/" << cfg.fault.repair.spare_cols
              << (cfg.fault.repair.remap_rows ? ", remap" : "") << ", retries "
              << cfg.fault.repair.verify_retries << "}\n";
    TextTable t({"stuck rate", "bare MSE", "bare SNR (dB)", "repaired MSE",
                 "repaired SNR (dB)", "bit errs/img", "gain"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      t.add_row({format_double(rates[i], 4), format_double(p.mean_mse(false), 3),
                 format_double(p.mean_snr_db(false), 1), format_double(p.mean_mse(true), 3),
                 format_double(p.mean_snr_db(true), 1),
                 format_double(p.mean_bit_errors(true), 1),
                 p.repaired_not_worse() ? "+" : "WORSE"});
    }
    std::cout << t.to_ascii();
  }
  if (flags.has("out")) write_out_file(flags, result_json(), flags.get_bool("json"));
  return 0;
}

/// Install a telemetry sink for the lifetime of one command dispatch and
/// uninstall it on every exit path (including exceptions), so the global
/// sink pointer can never dangle past the registry it points at.
struct ScopedTelemetry {
  ScopedTelemetry(telemetry::MetricsRegistry* m, telemetry::Tracer* t) {
    telemetry::install_metrics(m);
    telemetry::install_tracer(t);
  }
  ~ScopedTelemetry() {
    telemetry::install_metrics(nullptr);
    telemetry::install_tracer(nullptr);
  }
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags = Flags::parse(argc - 1, argv + 1);
    if (flags.positional().empty()) {
      usage();
      return 1;
    }
    // RED_LOG_LEVEL / --log-timestamps first: warnings from the command
    // itself must already honour the requested verbosity and format.
    red::apply_log_env();
    if (flags.get_bool("log-timestamps")) red::set_log_timestamps(true);

    // --metrics / --trace: build the sinks up front so every subcommand is
    // observable through the same two flags. Telemetry is observe-only — the
    // command's results are byte-identical with or without the sinks.
    const std::string metrics_path = flags.get_string("metrics", "");
    const std::string trace_path = flags.get_string("trace", "");
    std::unique_ptr<red::telemetry::MetricsRegistry> metrics_registry;
    std::unique_ptr<red::telemetry::Tracer> trace_tracer;
    if (!metrics_path.empty())
      metrics_registry = std::make_unique<red::telemetry::MetricsRegistry>();
    if (!trace_path.empty()) trace_tracer = std::make_unique<red::telemetry::Tracer>();
    const ScopedTelemetry telemetry_scope(metrics_registry.get(), trace_tracer.get());

    const std::string& cmd = flags.positional().front();
    int rc = 0;
    if (cmd == "layer")
      rc = cmd_layer(flags);
    else if (cmd == "compare")
      rc = cmd_compare(flags);
    else if (cmd == "conv")
      rc = cmd_conv(flags);
    else if (cmd == "network")
      rc = cmd_network(flags);
    else if (cmd == "plan")
      rc = cmd_plan(flags);
    else if (cmd == "throughput")
      rc = cmd_throughput(flags);
    else if (cmd == "sweep")
      rc = cmd_sweep(flags);
    else if (cmd == "faults")
      rc = cmd_faults(flags);
    else if (cmd == "optimize")
      rc = cmd_optimize(flags);
    else if (cmd == "merge-checkpoints")
      rc = cmd_merge_checkpoints(flags);
    else if (cmd == "verify")
      rc = cmd_verify(flags);
    else if (cmd == "trace")
      rc = cmd_trace(flags);
    else if (cmd == "export")
      rc = cmd_export(flags);
    else if (cmd == "table1")
      std::cout << red::report::table1(red::workloads::table1_benchmarks()).to_ascii();
    else if (cmd == "fig4")
      std::cout << red::report::fig4_redundancy({1, 2, 4, 8, 16, 32}).to_ascii();
    else {
      usage();
      return 1;
    }
    // Export telemetry after the command finishes: the trace covers the whole
    // dispatch, and a failed run (rc != 0) still leaves its artifacts behind
    // for diagnosis. Table to stdout only in text mode — under --json stdout
    // must stay one parseable document.
    const bool json_mode = flags.get_bool("json");
    if (trace_tracer != nullptr) {
      trace_tracer->write_chrome_trace(trace_path);
      (json_mode ? std::cerr : std::cout) << "wrote " << trace_path << '\n';
    }
    if (metrics_registry != nullptr) {
      if (!json_mode) std::cout << metrics_registry->snapshot_table();
      red::store::write_file_atomic(metrics_path, metrics_registry->snapshot_json());
      (json_mode ? std::cerr : std::cout) << "wrote " << metrics_path << '\n';
    }
    for (const auto& name : flags.unused()) red::log_warn("unused flag --" + name);
    return rc;
  } catch (const red::ConfigError& e) {
    // Bad flag / bad value: the message already names the flag and the
    // accepted values, so one line is enough to fix the invocation.
    std::cerr << "red_cli: config error: " << e.what() << '\n';
    return 4;
  } catch (const red::MismatchError& e) {
    // An artifact contradicts itself (tampered checkpoint, plan fingerprint
    // drift): rerunning will not help, the input file needs attention.
    std::cerr << "red_cli: mismatch: " << e.what() << '\n';
    return 5;
  } catch (const red::IoError& e) {
    // The filesystem, not the configuration: missing directory, permissions,
    // full disk. Distinct from 4 so wrappers can retry or re-point --out
    // without re-validating their flags.
    std::cerr << "red_cli: io error: " << e.what() << '\n';
    return 6;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
