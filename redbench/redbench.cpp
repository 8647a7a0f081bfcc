// Simulator benchmark: end-to-end throughput, request latency, set-up time
// and peak memory of the RED simulator on three workloads, and a traced run
// that times each layer's public entry points from outside the library.
//
//   redbench --workload fcn8s_stream|dcgan_stream|fault_campaign --seed N
//            --seconds S [--trace 0|1] [--threads T] [--trace-out FILE]
//
// Human-readable lines come first on stdout; the last line is one JSON
// object with the keys correct, attempted, failed and metrics. Exit codes:
// 0 ok, 1 a correctness gate failed (the result is still printed), 2 bad
// arguments, 3 refused to report on this host or build. redbench/README.md
// explains every workload and metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gate.h"
#include "red/arch/design.h"
#include "red/common/error.h"
#include "red/common/rng.h"
#include "red/core/designs.h"
#include "red/fault/campaign.h"
#include "red/perf/mvm_kernel.h"
#include "red/plan/plan.h"
#include "red/sim/engine.h"
#include "red/sim/streaming.h"
#include "red/telemetry/metrics.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"

namespace {

using red::Tensor;
using Clock = std::chrono::steady_clock;
using Images = std::vector<Tensor<std::int32_t>>;

constexpr auto kDesign = red::core::DesignKind::kRed;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// User plus system CPU seconds of this process, all threads.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Seed of request `index` (or of a named input stream) under the workload
/// seed: splitmix64, so neighbouring seeds give unrelated inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;  ///< thread budget; trials of fault_campaign use nproc
  int nproc = 1;
  std::string trace_out;
};

// ---------------------------------------------------------------- report ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< human-only detail, e.g. the sample count
};

struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit, std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void fail(const std::string& why) {
    correct = false;
    std::cout << "gate FAILED: " << why << '\n';
  }
  /// Count one request; a thrown red::Error or a failed check fails it.
  void request(const std::function<void()>& fn) {
    ++attempted;
    try {
      fn();
    } catch (const red::Error& e) {
      ++failed;
      correct = false;
      std::cout << "request " << attempted << " FAILED: " << e.what() << '\n';
    }
  }
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_request_ms(const std::vector<double>& ms) {
  std::cout << "request ms:";
  for (double v : ms) std::cout << ' ' << std::lround(v);
  std::cout << '\n';
}

void print_report(const Report& r) {
  for (const auto& m : r.metrics)
    std::cout << "metric " << m.name << " = " << json_number(m.value) << ' ' << m.unit
              << (m.note.empty() ? "" : "  (" + m.note + ")") << '\n';
  std::ostringstream js;
  js << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
     << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    js << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? json_number(m.value) : "null") << ", \"unit\": \""
       << m.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

// ------------------------------------------------------------------ spans ---

/// Benchmark-side spans around library calls, kept in memory and written as
/// Chrome trace-event JSON when the traced run ends. Each span records its
/// parent (the span open when it started).
class SpanLog {
 public:
  /// Run fn inside a span named `name`; returns its wall milliseconds.
  template <typename Fn>
  double time(const std::string& name, Fn&& fn) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, us(Clock::now()), 0.0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    const auto t0 = Clock::now();
    fn();
    const double ms = ms_since(t0);
    open_.pop_back();
    spans_[static_cast<std::size_t>(id)].dur_us = ms * 1e3;
    return ms;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream f(path);
    f << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << json_number(s.start_us)
        << ", \"dur\": " << json_number(s.dur_us) << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << "}}";
    }
    f << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double dur_us;
    int parent;
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The library's metrics sink, installed for this object's lifetime.
class ScopedMetricsSink {
 public:
  ScopedMetricsSink() { red::telemetry::install_metrics(&registry_); }
  ~ScopedMetricsSink() { red::telemetry::install_metrics(nullptr); }
  ScopedMetricsSink(const ScopedMetricsSink&) = delete;
  ScopedMetricsSink& operator=(const ScopedMetricsSink&) = delete;

 private:
  red::telemetry::MetricsRegistry registry_;
};

/// A traced request: a benchmark span around fn, with the library's
/// metrics sink installed for its duration. Returns its wall milliseconds.
template <typename Fn>
double traced_call(SpanLog& log, const std::string& name, Fn&& fn) {
  const ScopedMetricsSink sink;
  return log.time(name, std::forward<Fn>(fn));
}

/// trace.overhead_pct: traced against untraced requests (2 each,
/// alternating; `first_traced_ms` is the traced request already made).
/// request(r) runs request r, r >= 2, on fresh inputs.
void overhead_pct(SpanLog& log, const std::string& name, double first_traced_ms,
                  const std::function<void(int)>& request, Report& rep) {
  std::vector<double> traced{first_traced_ms}, plain;
  const auto t0 = Clock::now();
  request(2);
  plain.push_back(ms_since(t0));
  traced.push_back(traced_call(log, name, [&] { request(3); }));
  const auto t1 = Clock::now();
  request(4);
  plain.push_back(ms_since(t1));
  rep.attempted += 3;
  rep.add("trace.overhead_pct", 100.0 * (median(traced) / median(plain) - 1.0), "%",
          "2 traced vs 2 untraced requests");
}

// ---------------------------------------------------------------- streams ---

struct StreamWorkload {
  std::string name;
  std::vector<red::nn::DeconvLayerSpec> stack;
  int images = 1;         ///< images per request
  int setup_reps = 1;     ///< executor constructions; setup_s is their median
  int pool_requests = 1;  ///< pre-generated requests, warm-up included
};

StreamWorkload fcn8s_workload() {
  return {"fcn8s_stream", red::workloads::fcn8s_upsampling(), 1, 15, 256};
}

StreamWorkload dcgan_workload() {
  return {"dcgan_stream", red::workloads::dcgan_generator(1), 8, 3, 64};
}

/// Images of request `r` (r = 0 is the warm-up request).
Images request_images(const StreamWorkload& w, std::uint64_t seed, int r) {
  return red::workloads::make_input_batch(w.stack[0], w.images,
                                          derive_seed(seed, static_cast<std::uint64_t>(r)));
}

void run_stream(const StreamWorkload& w, const Settings& st, Report& rep, redbench::Digest& dg) {
  const auto kernels = red::workloads::make_stack_kernels(w.stack, st.seed);
  std::vector<Images> pool;
  pool.reserve(static_cast<std::size_t>(w.pool_requests));
  for (int r = 0; r < w.pool_requests; ++r) pool.push_back(request_images(w, st.seed, r));

  const red::arch::DesignConfig cfg;
  std::unique_ptr<red::sim::StreamingExecutor> exec;
  std::vector<double> setup_s;
  for (int i = 0; i < w.setup_reps; ++i) {
    exec.reset();
    auto k = kernels;
    const auto t0 = Clock::now();
    exec = std::make_unique<red::sim::StreamingExecutor>(kDesign, cfg, w.stack, std::move(k));
    setup_s.push_back(ms_since(t0) / 1e3);
  }

  red::sim::StreamingOptions opts;
  opts.threads = st.threads;
  opts.check = true;

  // Warm-up request: discarded from the timings, gated against the
  // reference chain, and the source of the digest. The reference is
  // computed first so the warm-up directly precedes the timed loop.
  try {
    const auto ref =
        redbench::reference_outputs(w.stack, kernels, pool[0], cfg.quant.abits, st.nproc);
    const auto warm = exec->stream(pool[0], opts);
    dg.batch(warm);
    if (const auto why = redbench::compare_outputs(warm, ref); !why.empty()) rep.fail(why);
  } catch (const red::Error& e) {
    rep.fail(std::string("warm-up request threw: ") + e.what());
  }

  std::vector<double> request_ms;
  std::int64_t units = 0;
  const auto t0 = Clock::now();
  std::size_t r = 1;
  for (; r < pool.size() && ms_since(t0) < st.seconds * 1e3; ++r) {
    const auto tr = Clock::now();
    rep.request([&] {
      const auto res = exec->stream(pool[r], opts);
      if (res.images.size() != pool[r].size())
        throw red::MismatchError("stream returned " + std::to_string(res.images.size()) +
                                 " images");
      units += static_cast<std::int64_t>(res.images.size());
    });
    request_ms.push_back(ms_since(tr));
  }
  const double wall_s = ms_since(t0) / 1e3;
  print_request_ms(request_ms);
  if (r == pool.size())
    std::cout << "note: the input pool ran out after " << r - 1 << " requests\n";

  rep.add("units_per_s", units / wall_s, "1/s",
          std::to_string(units) + " images in " + json_number(wall_s) + " s");
  rep.add("request_ms_p50", median(request_ms), "ms",
          "n=" + std::to_string(request_ms.size()));
  rep.add("setup_s", median(setup_s), "s", "median of " + std::to_string(setup_s.size()));
}

/// Serial per-stage timings (DesignConfig::threads = 1) plus one traced
/// stream() of a request on the thread budget.
void trace_stream(const StreamWorkload& w, const Settings& st, bool overhead, Report& rep,
                  SpanLog& log) {
  const std::string& net = w.name;
  const auto kernels = red::workloads::make_stack_kernels(w.stack, st.seed);
  const Images images = request_images(w, st.seed, 1);  // fresh: never run before
  const red::arch::DesignConfig cfg;

  red::plan::StackPlan splan;
  std::vector<double> compile_ms;
  for (int i = 0; i < 5; ++i)
    compile_ms.push_back(log.time(
        "plan::plan_stack", [&] { splan = red::plan::plan_stack(kDesign, w.stack, cfg); }));
  rep.add("plan.compile_ms." + net, median(compile_ms), "ms", "median of 5");

  // Serial stage chain on the request's first image.
  const auto design = red::core::make_design(kDesign, cfg);
  double serial_ms = 0.0;  // one image: run + requantize + check per stage
  std::vector<double> run_ms(w.stack.size());
  Tensor<std::int32_t> x = images[0];
  for (std::size_t i = 0; i < w.stack.size(); ++i) {
    const std::string& stage = w.stack[i].name;
    std::unique_ptr<red::arch::ProgrammedLayer> pl;
    rep.add("arch.program_ms." + stage, log.time("Design::program", [&] {
              pl = design->program(splan.layers[i], kernels[i]);
            }), "ms");
    red::arch::RunStats stats, restats;
    Tensor<std::int32_t> y, y2;
    run_ms[i] = log.time("ProgrammedLayer::run", [&] { y = pl->run(x, &stats); });
    const double rerun =
        log.time("ProgrammedLayer::run(again)", [&] { y2 = pl->run(x, &restats); });
    if (!(y == y2) || !(stats == restats))
      rep.fail("stage " + stage + " gave a different result on the same input");
    std::vector<std::string> issues;
    const double check = log.time("sim::consistency_issues", [&] {
      issues = red::sim::consistency_issues(splan.layers[i].activity, stats,
                                            red::count_zeros(x) == 0);
    });
    if (!issues.empty()) rep.fail("stage " + stage + ": " + issues.front());
    Tensor<std::int32_t> q;
    const double requant = log.time("sim::requantize_activations", [&] {
      q = red::sim::requantize_activations(y, cfg.quant.abits);
    });
    const auto ops = static_cast<double>(stats.mvm.mvm_ops);
    rep.add("core.run_ms." + stage, run_ms[i], "ms");
    rep.add("core.rerun_ms." + stage, rerun, "ms");
    rep.add("core.ns_per_cycle." + stage, run_ms[i] * 1e6 / static_cast<double>(stats.cycles),
            "ns");
    rep.add("perf.mvm_ops." + stage, ops, "count");
    rep.add("perf.ns_per_mvm_op." + stage, run_ms[i] * 1e6 / ops, "ns");
    rep.add("sim.requantize_ms." + stage, requant, "ms");
    rep.add("sim.check_ms." + stage, check, "ms");
    const bool last = i + 1 == w.stack.size();
    serial_ms += run_ms[i] + check + (last ? 0.0 : requant);
    x = last ? std::move(y) : std::move(q);
  }
  double total_run = 0.0;
  for (double ms : run_ms) total_run += ms;
  for (std::size_t i = 0; i < w.stack.size(); ++i)
    rep.add("core.run_share." + w.stack[i].name, run_ms[i] / total_run, "ratio");

  const red::sim::StreamingExecutor exec(splan, kernels);
  red::sim::StreamingOptions opts;
  opts.threads = st.threads;
  opts.check = true;
  red::sim::StreamingBatchResult res;
  const double cpu0 = cpu_seconds();
  const double wall =
      traced_call(log, "StreamingExecutor::stream", [&] { res = exec.stream(images, opts); });
  const double busy = (cpu_seconds() - cpu0) * 1e3 / wall;
  ++rep.attempted;
  if (!(res.images[0].output == x))
    rep.fail(net + ": stream() and the serial stage chain disagree on image 0");
  rep.add("sim.fill_ms." + net, res.fill_ms(), "ms");
  rep.add("sim.steady_interval_ms." + net, res.steady_interval_ms(), "ms");
  rep.add("sim.cores_busy." + net, busy, "cores");
  rep.add("sim.speedup_vs_serial." + net, serial_ms * w.images / wall, "x");

  if (overhead) {
    std::vector<Images> more;  // requests 2..4
    for (int r = 2; r <= 4; ++r) more.push_back(request_images(w, st.seed, r));
    const auto request = [&](int r) {
      (void)exec.stream(more[static_cast<std::size_t>(r - 2)], opts);
    };
    overhead_pct(log, "StreamingExecutor::stream", wall, request, rep);
  }
}

// ---------------------------------------------------------- fault campaign ---

struct FaultWorkload {
  red::nn::DeconvLayerSpec spec = red::workloads::gan_deconv2();
  std::vector<red::fault::FaultModel> models;
  red::fault::RepairPolicy policy;
  Tensor<std::int32_t> input, kernel;

  FaultWorkload() {
    for (double rate : {0.0, 0.001, 0.01}) {
      red::fault::FaultModel m;
      m.sa0_rate = rate / 2.0;
      m.sa1_rate = rate / 2.0;
      models.push_back(m);
    }
    policy.spare_rows = 2;
    policy.spare_cols = 2;
  }

  void make_inputs(std::uint64_t seed) {
    red::Rng rng(derive_seed(seed, 0xfa017ULL));
    input = red::workloads::make_input(spec, rng, 1, 7);
    kernel = red::workloads::make_kernel(spec, rng, -7, 7);
  }

  [[nodiscard]] std::vector<red::fault::FaultCampaignPoint> campaign(const Settings& st,
                                                                     int r) const {
    red::fault::FaultCampaignOptions opts;
    opts.trials = st.nproc;
    opts.threads = st.threads;
    opts.base_seed = derive_seed(st.seed, static_cast<std::uint64_t>(r));
    return red::fault::run_fault_campaign(kDesign, red::arch::DesignConfig{}, models, policy,
                                          spec, input, kernel, opts);
  }
};

void run_fault(const Settings& st, Report& rep, redbench::Digest& dg) {
  FaultWorkload w;
  std::vector<double> setup_s;
  for (int i = 0; i < 9; ++i) {
    const auto t0 = Clock::now();
    w.make_inputs(st.seed);
    setup_s.push_back(ms_since(t0) / 1e3);
  }

  // Warm-up: the clean layer against the direct reference (the oracle every
  // score is taken against), then one campaign under its contract.
  try {
    const auto design = red::core::make_design(kDesign, {});
    const auto clean = design->program(w.spec, w.kernel)->run(w.input);
    if (!(clean == red::nn::deconv_reference(w.spec, w.input, w.kernel)))
      rep.fail("clean " + w.spec.name + " differs from nn::deconv_reference");
    const auto pts = w.campaign(st, 0);
    dg.campaign(pts);
    if (const auto why = redbench::campaign_gate(pts); !why.empty()) rep.fail(why);
  } catch (const red::Error& e) {
    rep.fail(std::string("warm-up campaign threw: ") + e.what());
  }

  const std::int64_t arms = 2 * static_cast<std::int64_t>(w.models.size()) * st.nproc;
  std::vector<double> request_ms;
  std::int64_t units = 0;
  const auto t0 = Clock::now();
  for (int r = 1; ms_since(t0) < st.seconds * 1e3; ++r) {
    const auto tr = Clock::now();
    rep.request([&] {
      if (const auto why = redbench::campaign_gate(w.campaign(st, r)); !why.empty())
        throw red::MismatchError(why);
      units += arms;
    });
    request_ms.push_back(ms_since(tr));
  }
  const double wall_s = ms_since(t0) / 1e3;
  print_request_ms(request_ms);
  rep.add("units_per_s", units / wall_s, "1/s",
          std::to_string(units) + " arms in " + json_number(wall_s) + " s");
  rep.add("request_ms_p50", median(request_ms), "ms",
          "n=" + std::to_string(request_ms.size()));
  rep.add("setup_s", median(setup_s), "s", "input generation, median of 9");
}

void trace_fault(const Settings& st, bool overhead, Report& rep, SpanLog& log) {
  FaultWorkload w;
  w.make_inputs(st.seed);
  red::arch::DesignConfig clean_cfg;  // what run_fault_campaign programs
  const auto design = red::core::make_design(kDesign, clean_cfg);
  std::unique_ptr<red::arch::ProgrammedLayer> clean;
  rep.add("fault.clean_program_ms",
          log.time("Design::program", [&] { clean = design->program(w.spec, w.kernel); }), "ms");
  const auto oracle = clean->run(w.input);

  // One arm per (rate, policy) at the first trial seed.
  std::vector<double> faulted_ms, run_ms, score_ms;
  for (const auto& model : w.models)
    for (const bool repair : {false, true}) {
      auto m = model;
      m.seed = derive_seed(st.seed, 1);
      std::unique_ptr<red::arch::ProgrammedLayer> layer;
      Tensor<std::int32_t> out;
      faulted_ms.push_back(log.time("ProgrammedLayer::faulted", [&] {
        layer = clean->faulted(m, repair ? w.policy : red::fault::RepairPolicy{});
      }));
      run_ms.push_back(log.time("ProgrammedLayer::run", [&] { out = layer->run(w.input); }));
      red::fault::FaultScore s;
      score_ms.push_back(
          log.time("fault::score_output", [&] { s = red::fault::score_output(oracle, out); }));
      if (model.sa0_rate == 0.0 && !s.exact()) rep.fail("zero-rate arm is not exact");
    }
  const double arm = median(faulted_ms) + median(run_ms) + median(score_ms);
  rep.add("fault.faulted_ms", median(faulted_ms), "ms", "median of 6 arms");
  rep.add("fault.run_ms", median(run_ms), "ms", "median of 6 arms");
  rep.add("fault.score_ms", median(score_ms), "ms", "median of 6 arms");
  rep.add("fault.faulted_share", median(faulted_ms) / arm, "ratio");

  const auto campaign = [&](int r) {
    if (const auto why = redbench::campaign_gate(w.campaign(st, r)); !why.empty())
      rep.fail(why);
  };
  const double cpu0 = cpu_seconds();
  const double wall = traced_call(log, "fault::run_fault_campaign", [&] { campaign(1); });
  ++rep.attempted;
  rep.add("fault.cores_busy", (cpu_seconds() - cpu0) * 1e3 / wall, "cores");
  if (overhead) overhead_pct(log, "fault::run_fault_campaign", wall, campaign, rep);
}

// ------------------------------------------------------------------- host ---

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Prints the host context; returns a reason to refuse, or "".
std::string host_context(const Settings& st) {
  const auto detected = red::perf::mvm_detected_isa();
  const auto active = red::perf::mvm_active_isa();
  const std::string build_type = REDBENCH_BUILD_TYPE;
  const char* red_threads = std::getenv("RED_THREADS");
  std::cout << "host: cpu \"" << cpu_model() << "\", nproc " << st.nproc << ", mvm isa detected "
            << red::perf::mvm_isa_name(detected) << " active " << red::perf::mvm_isa_name(active)
            << ", compiler \"" << __VERSION__ << "\", build " << build_type << ", threads "
            << st.threads << (red_threads ? std::string(", RED_THREADS=") + red_threads : "")
            << '\n';
  if (active != detected)
    return std::string("the active MVM tier (") + red::perf::mvm_isa_name(active) +
           ") is not the detected one (" + red::perf::mvm_isa_name(detected) +
           "); unset RED_MVM_ISA";
  if (build_type != "Release") return "the build type is " + build_type + ", not Release";
  return "";
}

int usage(const std::string& why) {
  std::cerr << "redbench: " << why
            << "\nusage: redbench --workload fcn8s_stream|dcgan_stream|fault_campaign --seed N"
               " --seconds S [--trace 0|1] [--threads T] [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Settings st;
  st.nproc = nproc();
  st.threads = st.nproc;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], val = argv[i + 1];
      if (key == "--workload") st.workload = val;
      else if (key == "--seed") st.seed = std::stoull(val);
      else if (key == "--seconds") st.seconds = std::stod(val);
      else if (key == "--trace") st.trace = std::stoi(val) != 0;
      else if (key == "--threads") st.threads = std::stoi(val);
      else if (key == "--trace-out") st.trace_out = val;
      else return usage("unknown flag " + key);
    }
    if (argc % 2 == 0) return usage("every flag takes one value");
  } catch (const std::exception&) {
    return usage("bad flag value");
  }
  if (st.workload != "fcn8s_stream" && st.workload != "dcgan_stream" &&
      st.workload != "fault_campaign")
    return usage("unknown workload '" + st.workload + "'");
  if (st.threads < 1 || !(st.seconds > 0.0)) return usage("--threads and --seconds must be > 0");

  if (const auto why = host_context(st); !why.empty()) {
    std::cerr << "redbench: refusing to report: " << why << '\n';
    return 3;
  }

  Report rep;
  try {
    if (st.trace) {
      SpanLog log;
      trace_stream(fcn8s_workload(), st, st.workload == "fcn8s_stream", rep, log);
      trace_stream(dcgan_workload(), st, st.workload == "dcgan_stream", rep, log);
      trace_fault(st, st.workload == "fault_campaign", rep, log);
      log.write(st.trace_out);
    } else {
      redbench::Digest dg;
      if (st.workload == "fault_campaign")
        run_fault(st, rep, dg);
      else
        run_stream(st.workload == "fcn8s_stream" ? fcn8s_workload() : dcgan_workload(), st, rep,
                   dg);
      std::cout << "digest " << dg.hex() << "  (seed " << st.seed << ", warm-up request)\n";
      rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    }
  } catch (const red::Error& e) {
    rep.fail(std::string("unexpected error: ") + e.what());
  }
  print_report(rep);
  return rep.correct ? 0 : 1;
}
