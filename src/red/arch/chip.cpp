#include "red/arch/chip.h"

#include <cmath>

#include "red/circuits/interconnect.h"
#include "red/common/contracts.h"
#include "red/common/error.h"

namespace red::arch {

void ChipConfig::validate() const {
  subarray.validate();
  if (banks < 1) throw ConfigError("chip needs at least one bank");
  if (subarrays_per_bank < 1) throw ConfigError("bank needs at least one subarray");
  if (global_buffer_bits < 1) throw ConfigError("global buffer must be non-empty");
  if (bank_control_area_um2 < 0) throw ConfigError("bank control area must be >= 0");
}

double ChipPlan::cell_utilization() const {
  std::int64_t used = 0, alloc = 0;
  for (const auto& l : layers) {
    used += l.utilized_cells;
    alloc += l.allocated_cells;
  }
  return alloc == 0 ? 0.0 : static_cast<double>(used) / static_cast<double>(alloc);
}

double ChipPlan::occupancy() const {
  return available_subarrays == 0
             ? 0.0
             : static_cast<double>(required_subarrays) / static_cast<double>(available_subarrays);
}

ChipPlan plan_chip(const plan::StackPlan& stack, const ChipConfig& chip) {
  chip.validate();

  ChipPlan plan;
  plan.available_subarrays = chip.total_subarrays();

  // Next-fit bank assignment in layer order: `bank` is the bank currently
  // filling and `cursor` its next free subarray slot.
  int bank = 0;
  std::int64_t cursor = 0;
  for (const auto& lp : stack.layers) {
    const LayerActivity& act = lp.activity;
    LayerPlacement placement;
    placement.layer = lp.spec.name;
    for (const auto& m : act.macros) {
      const auto tiles = xbar::plan_tiling(m.rows, m.phys_cols, chip.subarray);
      placement.subarrays += m.count * tiles.tiles();
      placement.utilized_cells += m.count * tiles.utilized_cells();
      placement.allocated_cells += m.count * tiles.allocated_cells();
    }
    // RED's segmentation: a split macro whose sub-crossbars are smaller than
    // a subarray still consumes whole subarrays per decoder unit.
    if (act.split_macro && act.dec_units > placement.subarrays)
      placement.subarrays = act.dec_units;
    plan.required_subarrays += placement.subarrays;

    if (placement.subarrays > chip.subarrays_per_bank) {
      plan.diagnostics.push_back(
          "layer '" + placement.layer + "' needs " + std::to_string(placement.subarrays) +
          " subarrays but one bank holds only " + std::to_string(chip.subarrays_per_bank) +
          " — a layer's weights must reside within a single bank");
    } else {
      if (cursor + placement.subarrays > chip.subarrays_per_bank) {
        ++bank;
        cursor = 0;
      }
      if (bank >= chip.banks) {
        plan.diagnostics.push_back(
            "no bank left for layer '" + placement.layer + "' (needs " +
            std::to_string(placement.subarrays) + " subarrays; all " +
            std::to_string(chip.banks) + " banks are full)");
      } else {
        placement.bank = bank;
        placement.subarray_begin = cursor;
        placement.subarray_end = cursor + placement.subarrays;
        cursor = placement.subarray_end;
        plan.banks_used = bank + 1;
      }
    }
    plan.layers.push_back(std::move(placement));
  }
  plan.fits = plan.diagnostics.empty();

  // Chip area: per-bank control + global buffer + every subarray's cells and
  // periphery (priced via the calibrated constants of the plan's config).
  const auto& cal = stack.cfg.calib;
  const auto& node = stack.cfg.node;
  const double cell_um2 = cal.cell_area_f2 * node.f2_um2();
  const double cells_per_sub =
      static_cast<double>(chip.subarray.subarray_rows) * chip.subarray.subarray_cols;
  const double sub_periphery =
      cal.a_dec_base + cal.a_dec_per_row * static_cast<double>(chip.subarray.subarray_rows) +
      cal.a_wd_per_row * static_cast<double>(chip.subarray.subarray_rows) +
      (cal.a_bd_per_col + cal.a_mux_per_col) * static_cast<double>(chip.subarray.subarray_cols) +
      (cal.a_conv_unit + cal.a_sa_unit) * static_cast<double>(chip.subarray.subarray_cols) / 8.0;
  const double sub_area = cells_per_sub * cell_um2 + sub_periphery;
  double bank_area = chip.bank_control_area_um2 +
                     cal.a_buf_per_bit * static_cast<double>(chip.global_buffer_bits) +
                     sub_area * static_cast<double>(chip.subarrays_per_bank);
  // Intra-bank H-tree routing inputs/outputs between the global row buffer
  // and the subarrays (Fig. 1(c)); sized by the bank's pre-routing edge.
  const double bank_edge_mm = std::sqrt(bank_area) / 1000.0;
  const circuits::HTree htree(chip.subarrays_per_bank, bank_edge_mm, cal);
  bank_area += htree.area().value();
  plan.chip_area = SquareMicrons{bank_area * chip.banks};
  return plan;
}

}  // namespace red::arch
