// Padding-free design (Algorithm 2 mapped directly onto a ReRAM macro).
//
// Mapping (Fig. 3): C rows x KH*KW*M logical columns; one input pixel per
// cycle (IH*IW cycles). The crossbar output is not final: an overlap
// accumulator merges the per-pixel patches on a canvas buffer and a crop unit
// trims the edges — the add-on circuitry that makes this design expensive on
// ReRAM (Sec. III-A), on top of the quadratic wordline-driving cost of its
// KH*KW*M-column output.
#pragma once

#include "red/arch/design.h"

namespace red::arch {

class PaddingFreeDesign final : public Design {
 public:
  explicit PaddingFreeDesign(DesignConfig cfg) : Design(std::move(cfg)) {}

  [[nodiscard]] std::string name() const override { return "padding-free"; }
  [[nodiscard]] DesignKind kind() const override { return DesignKind::kPaddingFree; }

  /// The scatter-form macro built once; each run streams the input pixels
  /// through it and overlap-adds on a canvas, Monte Carlo trials reprogram
  /// only the variation deltas.
  using Design::program;  // keep the spec-taking wrapper visible
  [[nodiscard]] std::unique_ptr<ProgrammedLayer> program(
      const plan::LayerPlan& plan, const Tensor<std::int32_t>& kernel) const override;
};

}  // namespace red::arch
