// Whole-GAN example: generator (deconvolution on RED) and discriminator
// (convolution on the shared conv engine) evaluated on one PIM chip model —
// the complete DCGAN inference loop the paper's introduction motivates.
//
// Functional pass uses reduced channels (bit-exact against the golden
// references); the cost projection uses the full-width networks.
#include <cmath>
#include <iostream>

#include "red/arch/chip.h"
#include "red/arch/conv_engine.h"
#include "red/arch/programming.h"
#include "red/common/rng.h"
#include "red/common/string_util.h"
#include "red/common/table.h"
#include "red/core/designs.h"
#include "red/nn/conv_layer.h"
#include "red/nn/deconv_reference.h"
#include "red/nn/ops.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"

int main() {
  using namespace red;
  std::cout << "Full DCGAN loop on a ReRAM PIM chip: generator (RED) + discriminator (conv)\n\n";

  // ---- functional pass, reduced channels -----------------------------------
  const int div = 32;
  const auto gen = workloads::dcgan_generator(div);
  const auto disc = workloads::dcgan_discriminator(div);
  workloads::validate_stack(gen);
  workloads::validate_conv_stack(disc);

  Rng rng(99);
  const auto red_design = core::make_design(core::DesignKind::kRed);
  Tensor<std::int32_t> act = workloads::make_input(gen[0], rng, 1, 7);
  for (const auto& layer : gen) {
    const auto kernel = workloads::make_kernel(layer, rng, -3, 3);
    const auto out = red_design->run(layer, act, kernel);
    const bool ok = first_mismatch(nn::deconv_reference(layer, act, kernel), out).empty();
    std::cout << "G " << layer.name << ": -> " << layer.oh() << "x" << layer.ow() << "x"
              << layer.m << (ok ? " (bit-exact)" : " (MISMATCH)") << '\n';
    act = nn::requantize_shift(nn::relu(out), 6, 0, 7);
  }

  // Discriminator consumes the generated 64x64x3 image.
  const arch::ConvEngine conv_engine{arch::DesignConfig{}};
  for (const auto& layer : disc) {
    Tensor<std::int32_t> kernel(layer.kernel_shape());
    fill_random(kernel, rng, -3, 3);
    const auto out = conv_engine.run(layer, act, kernel);
    const bool ok = first_mismatch(nn::conv_reference(layer, act, kernel), out).empty();
    std::cout << "D " << layer.name << ": -> " << layer.oh() << "x" << layer.ow() << "x"
              << layer.m << (ok ? " (bit-exact)" : " (MISMATCH)") << '\n';
    act = nn::requantize_shift(nn::relu(out), 6, 0, 7);
  }
  std::cout << "discriminator head input: " << act.shape().to_string() << "\n\n";

  // ---- full-width cost + chip deployment -----------------------------------
  const auto gen_full = workloads::dcgan_generator();
  const auto disc_full = workloads::dcgan_discriminator();
  arch::DesignConfig cfg;
  const auto red_full = core::make_design(core::DesignKind::kRed, cfg);
  const arch::ConvEngine conv_full(cfg);

  double lat = 0, energy = 0, prog_energy = 0;
  for (const auto& layer : gen_full) {
    const auto c = red_full->cost(layer);
    lat += c.total_latency().value();
    energy += c.total_energy().value();
    prog_energy += arch::programming_cost(red_full->activity(layer), cfg).energy.value();
  }
  for (const auto& layer : disc_full) {
    const auto c = conv_full.cost(layer);
    lat += c.total_latency().value();
    energy += c.total_energy().value();
    prog_energy += arch::programming_cost(conv_full.activity(layer), cfg).energy.value();
  }
  std::cout << "full-width generator+discriminator (RED generator):\n  latency "
            << format_double(lat / 1e3, 2) << " us/image, energy "
            << format_double(energy / 1e6, 3) << " uJ/image, programming "
            << format_double(prog_energy / 1e6, 1) << " uJ once (break-even ~"
            << static_cast<std::int64_t>(std::ceil(prog_energy / energy)) << " images)\n";

  arch::ChipConfig chip;
  chip.banks = 16;
  chip.subarrays_per_bank = 512;
  const auto plan =
      arch::plan_chip(plan::plan_stack(red_full->kind(), gen_full, red_full->config()), chip);
  std::cout << "generator chip plan: " << plan.required_subarrays << "/"
            << plan.available_subarrays << " subarrays ("
            << format_percent(plan.occupancy(), 1) << " occupancy, "
            << (plan.fits ? "fits" : "DOES NOT FIT") << "), chip "
            << format_double(plan.chip_area.value() / 1e6, 1) << " mm^2\n";
  return 0;
}
