// Correctness gate and determinism digest of the simulator benchmark.
//
// The gate judges outputs only against things computed without the designs:
// a stream's images against a chain of nn::deconv_reference and
// sim::requantize_activations, and a fault campaign's scores against the
// oracle contract (zero stuck-at rate is exact, repair is never worse).
// The digest hashes every output tensor, RunStats and fault score of a run
// so two runs of one seed can be compared at any thread count.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "red/arch/design.h"
#include "red/fault/campaign.h"
#include "red/nn/deconv_reference.h"
#include "red/nn/layer.h"
#include "red/sim/streaming.h"
#include "red/tensor/tensor.h"

namespace redbench {

using red::Tensor;

/// 64-bit FNV-1a over the raw bytes of everything added, in order.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    bytes(&u, sizeof u);
  }
  void tensor(const Tensor<std::int32_t>& t) {
    const auto& s = t.shape();
    for (int axis = 0; axis < 4; ++axis) i64(s.dim(axis));
    bytes(t.data(), static_cast<std::size_t>(t.size()) * sizeof(std::int32_t));
  }
  void stats(const red::arch::RunStats& s) {
    for (std::int64_t v : {s.cycles, s.mvm.mvm_ops, s.mvm.row_drives, s.mvm.mac_pulses,
                           s.mvm.conversions, s.mvm.adc_clips, s.overlap_adds,
                           s.buffer_accesses})
      i64(v);
  }
  void score(const red::fault::FaultScore& s) {
    for (double v : {s.mse, s.snr_db, s.nrmse, s.max_abs_err}) f64(v);
    for (std::int64_t v : {s.pixels, s.mismatched_pixels, s.bit_errors}) i64(v);
  }
  void batch(const red::sim::StreamingBatchResult& r) {
    for (const auto& img : r.images) {
      tensor(img.output);
      for (const auto& s : img.layer_stats) stats(s);
    }
    stats(r.total);
  }
  void campaign(const std::vector<red::fault::FaultCampaignPoint>& points) {
    for (const auto& p : points)
      for (const auto& t : p.trials)
        for (const auto* arm : {&t.unrepaired, &t.repaired}) {
          score(arm->score);
          stats(arm->stats);
        }
  }
  [[nodiscard]] std::string hex() const {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 0; i < 16; ++i) s[static_cast<std::size_t>(i)] = kHex[(h_ >> (60 - 4 * i)) & 0xf];
    return s;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The stack's final outputs for `images`, computed by the direct
/// scatter-accumulate reference with the streaming executor's inter-stage
/// requantization. Images are spread over `threads` host threads.
inline std::vector<Tensor<std::int32_t>> reference_outputs(
    const std::vector<red::nn::DeconvLayerSpec>& stack,
    const std::vector<Tensor<std::int32_t>>& kernels,
    const std::vector<Tensor<std::int32_t>>& images, int abits, int threads) {
  std::vector<Tensor<std::int32_t>> out(images.size());
  const auto one = [&](std::size_t k) {
    Tensor<std::int32_t> x = images[k];
    for (std::size_t i = 0; i < stack.size(); ++i) {
      Tensor<std::int32_t> y = red::nn::deconv_reference(stack[i], x, kernels[i]);
      x = i + 1 < stack.size() ? red::sim::requantize_activations(y, abits) : std::move(y);
    }
    out[k] = std::move(x);
  };
  std::vector<std::thread> pool;
  const auto lanes = static_cast<std::size_t>(threads < 1 ? 1 : threads);
  for (std::size_t t = 0; t < lanes && t < images.size(); ++t)
    pool.emplace_back([&, t] {
      for (std::size_t k = t; k < images.size(); k += lanes) one(k);
    });
  for (auto& th : pool) th.join();
  return out;
}

/// First difference between a streamed batch and the reference outputs,
/// or "" when every image matches pixel by pixel.
inline std::string compare_outputs(const red::sim::StreamingBatchResult& got,
                                   const std::vector<Tensor<std::int32_t>>& want) {
  if (got.images.size() != want.size())
    return "batch holds " + std::to_string(got.images.size()) + " images, expected " +
           std::to_string(want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    const auto& g = got.images[k].output;
    if (!(g.shape() == want[k].shape()))
      return "image " + std::to_string(k) + " has the wrong output shape";
    for (std::int64_t i = 0; i < g.size(); ++i)
      if (g.data()[i] != want[k].data()[i])
        return "image " + std::to_string(k) + " differs from the reference at pixel " +
               std::to_string(i) + " (" + std::to_string(g.data()[i]) + " vs " +
               std::to_string(want[k].data()[i]) + ")";
  }
  return "";
}

/// First violation of the campaign contract, or "": every trial of the
/// zero-rate point (points[0]) is exact on both arms, and at every rate the
/// repaired arm's mean MSE is not above the bare arm's.
inline std::string campaign_gate(const std::vector<red::fault::FaultCampaignPoint>& points) {
  if (points.empty()) return "campaign returned no grid points";
  for (const auto& t : points[0].trials)
    if (!t.unrepaired.score.exact() || !t.repaired.score.exact())
      return "zero-rate trial " + std::to_string(t.seed) + " is not exact";
  for (std::size_t g = 0; g < points.size(); ++g)
    if (!points[g].repaired_not_worse())
      return "repair made grid point " + std::to_string(g) + " worse";
  return "";
}

}  // namespace redbench
