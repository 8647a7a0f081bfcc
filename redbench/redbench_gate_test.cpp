// The benchmark's own test: the correctness gate passes on honest outputs
// and fires when one output pixel is flipped or a campaign breaks its
// contract; the digest changes with the flipped pixel.
//
//   python3 redbench/run.py --self-test

#include <cstdint>
#include <iostream>
#include <string>

#include "gate.h"
#include "red/core/designs.h"
#include "red/sim/streaming.h"
#include "red/workloads/benchmarks.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
  if (!ok) ++failures;
}

void stream_gate() {
  const auto stack = red::workloads::dcgan_generator(64);
  const auto kernels = red::workloads::make_stack_kernels(stack, 5);
  const auto images = red::workloads::make_input_batch(stack[0], 3, 11);
  const red::arch::DesignConfig cfg;
  const red::sim::StreamingExecutor exec(red::core::DesignKind::kRed, cfg, stack, kernels);
  auto batch = exec.stream(images, {/*threads=*/2, /*check=*/true});
  const auto ref = redbench::reference_outputs(stack, kernels, images, cfg.quant.abits, 2);
  expect(redbench::compare_outputs(batch, ref).empty(), "stream matches the reference chain");

  redbench::Digest before;
  before.batch(batch);
  batch.images[1].output.data()[7] ^= 1;
  redbench::Digest after;
  after.batch(batch);
  const auto why = redbench::compare_outputs(batch, ref);
  expect(!why.empty(), "one flipped pixel fires the stream gate: " + why);
  expect(before.hex() != after.hex(), "one flipped pixel changes the digest");
}

void campaign_gate() {
  const auto spec = red::workloads::table1_reduced(32)[1];  // GAN_Deconv2 / 32
  red::Rng rng(3);
  const auto input = red::workloads::make_input(spec, rng, 1, 7);
  const auto kernel = red::workloads::make_kernel(spec, rng, -7, 7);
  std::vector<red::fault::FaultModel> models(2);
  models[1].sa0_rate = models[1].sa1_rate = 0.005;
  red::fault::RepairPolicy policy;
  policy.spare_rows = policy.spare_cols = 2;
  red::fault::FaultCampaignOptions opts;
  opts.trials = 2;
  opts.threads = 2;
  const auto points = red::fault::run_fault_campaign(red::core::DesignKind::kRed, {}, models,
                                                     policy, spec, input, kernel, opts);
  expect(redbench::campaign_gate(points).empty(), "campaign meets its contract");

  auto flipped = points;
  flipped[0].trials[1].repaired.score.mismatched_pixels = 1;
  expect(!redbench::campaign_gate(flipped).empty(),
         "one mismatched zero-rate pixel fires the campaign gate");

  auto worse = points;
  for (auto& t : worse[1].trials) t.repaired.score.mse = t.unrepaired.score.mse + 1.0;
  expect(!redbench::campaign_gate(worse).empty(), "a worse repaired arm fires the campaign gate");
}

}  // namespace

int main() {
  stream_gate();
  campaign_gate();
  std::cout << (failures == 0 ? "gate test passed\n" : "gate test FAILED\n");
  return failures == 0 ? 0 : 1;
}
