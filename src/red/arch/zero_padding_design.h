// Zero-padding design (Algorithm 1 on a conventional ReRAM CNN accelerator,
// the ReGAN-style baseline everything is normalized to).
//
// Mapping (Fig. 3): one macro of KH*KW*C rows x M logical columns; each cycle
// feeds one padded-input window and yields one pixel of every output map, so
// the layer takes OH*OW cycles. The padded windows are mostly zeros
// (Fig. 4), so most cycles drive few wordlines yet still pay full decode,
// conversion, and shift-add work — the redundancy RED removes.
#pragma once

#include "red/arch/design.h"

namespace red::arch {

class ZeroPaddingDesign final : public Design {
 public:
  explicit ZeroPaddingDesign(DesignConfig cfg) : Design(std::move(cfg)) {}

  [[nodiscard]] std::string name() const override { return "zero-padding"; }
  [[nodiscard]] DesignKind kind() const override { return DesignKind::kZeroPadding; }

  /// The rotated-kernel macro built once; each run gathers the padded
  /// windows an output row at a time, Monte Carlo trials reprogram only the
  /// variation deltas.
  using Design::program;  // keep the spec-taking wrapper visible
  [[nodiscard]] std::unique_ptr<ProgrammedLayer> program(
      const plan::LayerPlan& plan, const Tensor<std::int32_t>& kernel) const override;
};

}  // namespace red::arch
