// Network-level evaluation (beyond the paper's per-layer tables): whole
// generator / up-sampling stacks per design — sequential latency, pipelined
// throughput, energy per image, and chip-fit under a Fig. 1(c)-style chip.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "red/arch/chip.h"
#include "red/arch/programming.h"
#include "red/common/flags.h"
#include "red/common/rng.h"
#include "red/sim/balance.h"
#include "red/sim/engine.h"
#include "red/common/string_util.h"
#include "red/common/table.h"
#include "red/core/designs.h"
#include "red/sim/pipeline.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace red;
  const Flags flags = Flags::parse(argc - 1, argv + 1);
  // --smoke: one tiny functional iteration (the CTest bench_smoke label);
  // --threads N: worker lanes for the functional simulation section.
  const bool smoke = flags.get_bool("smoke");
  const int threads = static_cast<int>(flags.get_int("threads", 4));
  if (threads < 1) {
    red::log_error("--threads must be >= 1");
    return 2;
  }
  // Size the process-wide pool to the requested lane count (unless the user
  // pinned RED_THREADS), so the "N threads" column measures what it says.
  setenv("RED_THREADS", std::to_string(threads).c_str(), /*overwrite=*/0);
  bench::print_header("Network-level evaluation",
                      "extension — full deconv stacks + chip planning (Fig. 1(c))");

  struct Net {
    const char* name;
    std::vector<nn::DeconvLayerSpec> stack;
  };
  const std::vector<Net> nets{{"DCGAN generator", workloads::dcgan_generator()},
                              {"SNGAN generator", workloads::sngan_generator()},
                              {"FCN-8s upsampling", workloads::fcn8s_upsampling()}};
  const std::vector<core::DesignKind> kinds{core::DesignKind::kZeroPadding,
                                            core::DesignKind::kPaddingFree,
                                            core::DesignKind::kRed};

  for (const auto& net : nets) {
    bench::print_section(net.name);
    TextTable t({"design", "seq latency (us)", "interval (us)", "throughput (img/s)",
                 "energy/img (uJ)", "buffers (KiB)"});
    double zp_seq = 0;
    for (auto kind : kinds) {
      const auto r = sim::evaluate_pipeline(kind, net.stack);
      if (kind == core::DesignKind::kZeroPadding) zp_seq = r.sequential_latency.value();
      t.add_row({r.design_name, format_double(r.sequential_latency.value() / 1e3, 2),
                 format_double(r.initiation_interval.value() / 1e3, 2),
                 format_double(r.throughput_img_per_s(), 0),
                 format_double(r.energy_per_image.value() / 1e6, 3),
                 format_double(static_cast<double>(r.buffer_bits) / 8192.0, 1)});
    }
    std::cout << t.to_ascii();
    const auto red = sim::evaluate_pipeline(core::DesignKind::kRed, net.stack);
    std::cout << "RED network speedup vs zero-padding: "
              << format_speedup(zp_seq / red.sequential_latency.value()) << "\n";
  }

  bench::print_section("functional network simulation (thread scaling)");
  {
    // Real tensor execution through every design (reduced channel counts so
    // the bit-exact functional path finishes quickly), serial vs threaded.
    // Threaded runs reuse the serial outputs as the equivalence oracle.
    const int channel_div = smoke ? 64 : 8;
    const std::vector<Net> fnets{{"DCGAN generator", workloads::dcgan_generator(channel_div)},
                                 {"SNGAN generator", workloads::sngan_generator(channel_div)}};
    TextTable t({"network", "design", "serial (ms)", std::to_string(threads) + " threads (ms)",
                 "scaling", "bit-exact?"});
    for (const auto& net : fnets) {
      Rng rng(42);
      std::vector<Tensor<std::int32_t>> inputs, kernels;
      for (const auto& layer : net.stack) {
        inputs.push_back(workloads::make_input(layer, rng, 1, 7));
        kernels.push_back(workloads::make_kernel(layer, rng, -7, 7));
      }
      for (auto kind : kinds) {
        arch::DesignConfig serial_cfg;
        const auto serial_design = core::make_design(kind, serial_cfg);
        auto t0 = std::chrono::steady_clock::now();
        const auto serial = sim::simulate_network(*serial_design, net.stack, inputs, kernels,
                                                  /*check=*/true, 1);
        const double serial_s = seconds_since(t0);

        arch::DesignConfig par_cfg;
        par_cfg.threads = threads;
        const auto par_design = core::make_design(kind, par_cfg);
        t0 = std::chrono::steady_clock::now();
        const auto parallel = sim::simulate_network(*par_design, net.stack, inputs, kernels,
                                                    /*check=*/true, threads);
        const double par_s = seconds_since(t0);

        bool exact = parallel.total == serial.total;
        for (std::size_t i = 0; exact && i < serial.layers.size(); ++i)
          exact = parallel.layers[i].output == serial.layers[i].output;
        t.add_row({net.name, serial.layers.front().predicted.design_name,
                   format_double(serial_s * 1e3, 1), format_double(par_s * 1e3, 1),
                   format_speedup(par_s > 0 ? serial_s / par_s : 1.0),
                   exact ? "yes" : "NO"});
      }
    }
    std::cout << t.to_ascii();
  }
  if (smoke) return 0;

  bench::print_section("one-time weight programming (write-and-verify)");
  {
    TextTable t({"network", "design", "program latency (us)", "program energy (uJ)",
                 "break-even images"});
    for (const auto& net : nets)
      for (auto kind : kinds) {
        const auto design = core::make_design(kind);
        double latency = 0, energy = 0;
        for (const auto& layer : net.stack) {
          const auto p = arch::programming_cost(design->activity(layer), design->config());
          latency = std::max(latency, p.latency.value());  // layers program in parallel
          energy += p.energy.value();
        }
        const auto r = sim::evaluate_pipeline(kind, net.stack);
        const auto break_even = static_cast<std::int64_t>(
            std::ceil(energy / r.energy_per_image.value()));
        t.add_row({net.name, design->name(), format_double(latency / 1e3, 1),
                   format_double(energy / 1e6, 2), std::to_string(break_even)});
      }
    std::cout << t.to_ascii();
  }

  bench::print_section("pipeline balancing by weight duplication (PipeLayer-style)");
  {
    arch::ChipConfig chip;
    chip.banks = 8;
    chip.subarrays_per_bank = 512;
    TextTable t({"network", "design", "interval before (us)", "interval after (us)",
                 "balance speedup", "subarrays used"});
    for (const auto& net : nets)
      for (auto kind : kinds) {
        const auto r = sim::balance_pipeline(kind, net.stack, chip, chip.total_subarrays());
        t.add_row({net.name, core::make_design(kind)->name(),
                   format_double(r.interval_before.value() / 1e3, 2),
                   format_double(r.interval_after.value() / 1e3, 2),
                   format_speedup(r.speedup()), std::to_string(r.subarrays_used)});
      }
    std::cout << t.to_ascii();
  }

  bench::print_section("chip planning (8 banks x 512 subarrays of 128x128)");
  {
    arch::ChipConfig chip;
    chip.banks = 8;
    chip.subarrays_per_bank = 512;
    TextTable t({"network", "design", "subarrays", "fits?", "occupancy", "cell util",
                 "chip area (mm^2)"});
    for (const auto& net : nets)
      for (auto kind : kinds) {
        const auto design = core::make_design(kind);
        const auto plan = arch::plan_chip(plan::plan_stack(kind, net.stack, {}), chip);
        t.add_row({net.name, design->name(), std::to_string(plan.required_subarrays),
                   plan.fits ? "yes" : "NO", format_percent(plan.occupancy(), 1),
                   format_percent(plan.cell_utilization(), 1),
                   format_double(plan.chip_area.value() / 1e6, 2)});
      }
    std::cout << t.to_ascii();
  }
  return 0;
} catch (const std::exception& e) {
  red::log_error(e.what());
  return 2;
}
