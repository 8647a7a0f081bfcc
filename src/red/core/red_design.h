// RED: the paper's ReRAM-based deconvolution accelerator.
//
// Combines pixel-wise mapping (Eq. 1) with the zero-skipping data flow
// (Sec. III-B2): only non-zero input pixels are streamed, every computation
// mode runs concurrently on its own sub-crossbar group, and one cycle
// produces an s x s block of output pixels per output map. Cycle count:
// ceil(OH/s) * ceil(OW/s) * fold, versus OH*OW for the zero-padding design.
//
// Sub-crossbars within one mode group share bitlines (vertical sum-up), so
// the overlap addition costs no extra circuitry; the price is the sub-
// crossbar segmentation area (~21% in the paper). For large kernels the
// area-efficient fold (Eq. 2) halves the sub-crossbar count per doubling of
// the cycle count.
#pragma once

#include "red/arch/design.h"
#include "red/core/mode_groups.h"

namespace red::core {

class RedDesign final : public arch::Design {
 public:
  explicit RedDesign(arch::DesignConfig cfg) : Design(std::move(cfg)) {}

  [[nodiscard]] std::string name() const override { return "RED"; }
  [[nodiscard]] arch::DesignKind kind() const override { return arch::DesignKind::kRed; }

  /// Schedule + group crossbars built once from the plan's fold and
  /// mode-group table; repeated runs reuse them (and a cached binding of the
  /// input pixels), Monte Carlo trials reprogram only the variation deltas.
  using Design::program;  // keep the spec-taking wrapper visible
  [[nodiscard]] std::unique_ptr<arch::ProgrammedLayer> program(
      const plan::LayerPlan& plan, const Tensor<std::int32_t>& kernel) const override;

  /// Fold factor used for this layer (config override or auto; the plan
  /// layer's resolve_fold is the single source of truth).
  [[nodiscard]] int fold_for(const nn::DeconvLayerSpec& spec) const;
};

}  // namespace red::core
