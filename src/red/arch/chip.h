// Chip-level organization (paper Fig. 1(c)): a ReRAM PIM chip is a grid of
// banks, each holding a bank controller, a global row buffer, and a set of
// crossbar subarrays with their periphery.
//
// This module answers the deployment questions the per-layer cost model
// cannot: how many physical subarrays does a whole network need under each
// design, where does each layer land, does it fit a given chip, and what
// chip area results. Weights stay resident (PIM: no off-chip weight
// traffic), so the fit is determined by the designs' subarray demand —
// including RED's segmentation overhead and the padding-free design's wide
// output macros.
//
// Placement consumes a compiled plan::StackPlan (the mapping IR): each
// layer's macro table comes straight from its LayerPlan, re-tiled onto the
// chip's own subarray geometry, and layers are assigned real subarray slots
// bank by bank — a layer's weights must reside within one bank (they share
// that bank's controller and global row buffer), so a layer whose demand
// exceeds one bank's subarrays fails with a per-layer diagnostic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "red/arch/design.h"
#include "red/common/units.h"
#include "red/nn/layer.h"
#include "red/plan/plan.h"
#include "red/xbar/tiling.h"

namespace red::arch {

struct ChipConfig {
  int banks = 8;
  std::int64_t subarrays_per_bank = 128;
  xbar::TilingConfig subarray;               ///< physical subarray geometry
  std::int64_t global_buffer_bits = 1 << 21; ///< per-bank global row buffer
  double bank_control_area_um2 = 5.0e4;      ///< controller + decoders per bank

  void validate() const;
  [[nodiscard]] std::int64_t total_subarrays() const {
    return std::int64_t{banks} * subarrays_per_bank;
  }
};

/// One layer's physical demand on the chip, plus its assigned slots.
struct LayerPlacement {
  std::string layer;
  std::int64_t subarrays = 0;        ///< crossbar tiles needed (weights resident)
  std::int64_t utilized_cells = 0;   ///< cells holding real weights
  std::int64_t allocated_cells = 0;  ///< cells in the allocated tiles

  // Real assignment (next-fit in layer order; a layer resides in one bank).
  int bank = -1;                   ///< assigned bank (-1 = placement failed)
  std::int64_t subarray_begin = 0; ///< first subarray slot within the bank
  std::int64_t subarray_end = 0;   ///< one past the last slot
  [[nodiscard]] bool placed() const { return bank >= 0; }
};

struct ChipPlan {
  std::vector<LayerPlacement> layers;
  std::int64_t required_subarrays = 0;
  std::int64_t available_subarrays = 0;
  int banks_used = 0;  ///< banks holding at least one placed layer
  /// True only when every layer received a real subarray assignment. Can be
  /// false even when required <= available: a layer bigger than one bank, or
  /// bank-boundary fragmentation, defeats an aggregate fit.
  bool fits = false;
  /// Per-layer placement failures ("layer X needs N subarrays but ...");
  /// empty exactly when fits.
  std::vector<std::string> diagnostics;
  /// Fraction of allocated cells holding real weights.
  [[nodiscard]] double cell_utilization() const;
  /// Fraction of the chip's subarrays in use (when it fits).
  [[nodiscard]] double occupancy() const;
  SquareMicrons chip_area;  ///< full chip (all banks), independent of the network
};

/// Place a compiled stack plan onto a chip: per-layer subarray demand from
/// each LayerPlan's macro table (re-tiled to the chip's subarray geometry,
/// including RED's segmentation floor), then real bank/slot assignment.
/// Accepts an empty stack (trivially fits).
[[nodiscard]] ChipPlan plan_chip(const plan::StackPlan& stack, const ChipConfig& chip);

}  // namespace red::arch
