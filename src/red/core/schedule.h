// Explicit zero-skipping schedule (paper Fig. 5(c)).
//
// The schedule materializes, cycle by cycle, which input pixel each
// sub-crossbar receives and which output pixel each mode group produces —
// the data the paper illustrates as "Cycle 1: I(0,0) goes to SC1, ...".
// RED's programmed layers execute this schedule; tests introspect it to prove the
// data-flow properties the paper claims:
//   * every output pixel is produced exactly once,
//   * only non-zero (real) input pixels are ever fed (zero-skipping),
//   * each (input pixel, kernel tap) pair is consumed exactly once,
//   * fold phases partition each group's sub-crossbars (Eq. 2).
//
// On top of the paper's static fold phases the schedule supports a
// Bit-Tactical-style lookahead/lookaside pass (DNNsim's `lookahead_h` /
// `lookaside_d` weight scheduling): with both knobs non-zero, work from up
// to min(h, d) later fold phases is promoted into the current cycle's idle
// sub-crossbar slots — the fold phases coalesce into windows of
// w = 1 + min(h, d), shrinking a block from `fold` to ceil(fold / w) cycles.
// The promotion is structural (input-independent): which slots merge depends
// only on (fold, h, d), so plan::red_activity prices the shortened schedule
// exactly and every executor replays it deterministically. Slot sets of the
// merged phases stay disjoint (phase p owns positions k ≡ p mod fold), so
// with an ideal ADC the merged integration is bit-identical to running the
// phases separately; a clipped ADC saturates the merged column current
// jointly — honest hardware semantics for wordlines fired in one cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "red/core/mode_groups.h"
#include "red/nn/layer.h"

namespace red::core {

/// One sub-crossbar's input assignment within a cycle.
struct ScInput {
  ScCoord sc;        ///< kernel tap of the sub-crossbar
  int sc_index = 0;  ///< position within the group's stacking order
  int h = 0;         ///< input row fed to the SC (valid only if `active`)
  int w = 0;         ///< input col
  bool active = false;  ///< false = zero vector (edge mask or inactive fold phase)
};

/// One mode group's work within a cycle.
struct GroupWork {
  int group_index = 0;
  int out_y = 0;  ///< output pixel produced (all M maps)
  int out_x = 0;
  bool produces_output = false;  ///< false on partial edge blocks
  std::vector<ScInput> inputs;   ///< one entry per SC in the group
};

/// One schedule cycle: all groups operate concurrently.
struct ScheduleCycle {
  std::int64_t index = 0;
  int block_y = 0;  ///< output block coordinates
  int block_x = 0;
  int phase = 0;    ///< coalesced fold phase in [0, phases()); 0 when fold == 1
  std::vector<GroupWork> groups;
};

class ZeroSkipSchedule {
 public:
  ZeroSkipSchedule(nn::DeconvLayerSpec spec, int fold, int lookahead_h = 0,
                   int lookaside_d = 0);

  /// Plan-consuming form: reuse an already-computed mode-group table (a
  /// compiled plan::LayerPlan's) instead of re-deriving it. `groups` must be
  /// compute_mode_groups(spec) — the plan layer guarantees this.
  ZeroSkipSchedule(nn::DeconvLayerSpec spec, int fold, std::vector<ModeGroup> groups);
  ZeroSkipSchedule(nn::DeconvLayerSpec spec, int fold, int lookahead_h, int lookaside_d,
                   std::vector<ModeGroup> groups);

  /// The one home of the coalescing rule; the constructor and
  /// plan::red_activity both go through these so the executed schedule and
  /// the analytic pricing can never diverge.
  [[nodiscard]] static int coalesce_window(int lookahead_h, int lookaside_d);
  [[nodiscard]] static int coalesced_phases(int fold, int lookahead_h, int lookaside_d);

  [[nodiscard]] const nn::DeconvLayerSpec& spec() const { return spec_; }
  [[nodiscard]] const std::vector<ModeGroup>& groups() const { return groups_; }
  [[nodiscard]] int fold() const { return fold_; }
  [[nodiscard]] int lookahead_h() const { return lookahead_h_; }
  [[nodiscard]] int lookaside_d() const { return lookaside_d_; }
  /// Fold phases coalesced per cycle: 1 + min(lookahead_h, lookaside_d) when
  /// both are non-zero, else 1 (the paper's static schedule).
  [[nodiscard]] int window() const { return window_; }
  /// Cycles per output block after coalescing: ceil(fold / window()). This —
  /// not fold() — is what executors iterate and red_activity prices.
  [[nodiscard]] int phases() const { return phases_; }
  [[nodiscard]] int blocks_y() const { return blocks_y_; }
  [[nodiscard]] int blocks_x() const { return blocks_x_; }
  [[nodiscard]] std::int64_t num_cycles() const;

  /// Generate cycle `index` (0 <= index < num_cycles()). Cycles iterate
  /// blocks row-major, with the `fold` phases of a block adjacent.
  [[nodiscard]] ScheduleCycle cycle(std::int64_t index) const;

  /// Generate only group `gi`'s work in cycle `index` — identical to
  /// cycle(index).groups[gi] but without materializing the other groups.
  /// Group-parallel executors (RED's programmed layers) walk the schedule
  /// per group through this instead of regenerating whole cycles per lane.
  [[nodiscard]] GroupWork group_work(std::int64_t index, int gi) const;

  /// Allocation-free variant: rebuilds `out` in place, reusing its `inputs`
  /// capacity (the hot-loop form the group walks use).
  void group_work(std::int64_t index, int gi, GroupWork& out) const;

 private:
  /// Build group `gi`'s work in place from an already-decoded (phase, block)
  /// position, reusing `work.inputs` capacity.
  void group_work_at(int phase, int block_y, int block_x, int gi, GroupWork& work) const;

  nn::DeconvLayerSpec spec_;
  std::vector<ModeGroup> groups_;
  int fold_;
  int lookahead_h_;
  int lookaside_d_;
  int window_;
  int phases_;
  int blocks_y_;
  int blocks_x_;
};

}  // namespace red::core
