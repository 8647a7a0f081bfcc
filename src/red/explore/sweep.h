// Design-space sweep driver: parallel grid evaluation with memoization.
//
// Every exploration surface in this repo — the Pareto sweep in
// examples/design_space.cpp, the fold/tiling ablation benches, and the
// red_cli `sweep` command — evaluates a grid of (design kind, DesignConfig,
// layer) points through the analytic activity and cost models. Those
// evaluations are pure functions of the point, grids routinely repeat
// points (baselines re-priced per row, nested sweeps sharing an axis), and
// the points are independent — the classic shape for memoized parallel
// dispatch. The driver deduplicates the grid by a structural fingerprint,
// fans the unique evaluations across the process-wide perf::ThreadPool into
// per-index slots (deterministic: identical results for any thread count),
// and serves repeats from a cache that persists across evaluate() calls.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "red/arch/cost_report.h"
#include "red/arch/design.h"
#include "red/core/designs.h"
#include "red/nn/layer.h"
#include "red/store/result_store.h"

namespace red::explore {

/// One grid point: a design kind and configuration evaluated on one layer.
struct SweepPoint {
  core::DesignKind kind = core::DesignKind::kRed;
  arch::DesignConfig cfg;
  nn::DeconvLayerSpec spec;
};

/// Analytic results of one grid point.
struct SweepOutcome {
  arch::LayerActivity activity;
  arch::CostReport cost;
  bool from_cache = false;  ///< served from the memo instead of evaluated
};

struct SweepStats {
  std::int64_t points = 0;          ///< grid points requested in total
  std::int64_t evaluated = 0;       ///< unique evaluations actually executed
  std::int64_t cache_hits = 0;      ///< points served from the memo
  std::int64_t cached_entries = 0;  ///< memo entries currently held
  std::int64_t evictions = 0;       ///< entries dropped by the FIFO cap
  std::int64_t store_hits = 0;      ///< points served from the persistent store
  std::int64_t store_rejects = 0;   ///< store payloads that failed to decode
};

class SweepDriver {
 public:
  /// `threads` bounds the fan-out of each evaluate() call (1 = serial).
  /// `max_cache_entries` caps the memo (0 = unbounded): once full, the
  /// oldest-inserted entries are evicted first (FIFO), so a long-running
  /// optimizer can stream an unbounded candidate sequence through a bounded
  /// memory footprint. A finite cap changes only which repeats are free,
  /// never any outcome — results stay bit-identical.
  explicit SweepDriver(int threads = 1, std::int64_t max_cache_entries = 0);

  /// Evaluate a grid, one outcome per point in point order. Duplicate points
  /// (and points seen by earlier evaluate() calls on this driver) are served
  /// from the memo; the rest run in parallel. Deterministic for any thread
  /// count.
  [[nodiscard]] std::vector<SweepOutcome> evaluate(const std::vector<SweepPoint>& grid);

  /// Drop every memo entry (counters other than cached_entries persist).
  void clear();

  /// Attach a persistent result store: evaluate() consults it before
  /// computing a point the memo has not seen (bit-identical warm starts —
  /// the codec round-trips outcomes exactly) and writes every fresh
  /// evaluation back, so repeated and parallel invocations share one
  /// evaluation history. nullptr detaches.
  void attach_store(std::shared_ptr<store::ResultStore> store) { store_ = std::move(store); }
  [[nodiscard]] const std::shared_ptr<store::ResultStore>& result_store() const {
    return store_;
  }

  /// Cumulative counters across evaluate() calls.
  [[nodiscard]] const SweepStats& stats() const { return stats_; }

 private:
  int threads_;
  std::int64_t max_cache_entries_;
  SweepStats stats_;
  std::unordered_map<std::string, std::shared_ptr<const SweepOutcome>> cache_;
  std::deque<std::string> insertion_order_;  ///< FIFO eviction queue
  std::shared_ptr<store::ResultStore> store_;
};

/// Binary codec for persisting a SweepOutcome in a store::ResultStore.
/// encode/decode round-trip bit-exactly (doubles are stored as raw bytes);
/// decode throws ConfigError on a truncated or schema-mismatched payload —
/// the driver treats that as a store miss, never a failure.
[[nodiscard]] std::string encode_outcome(const SweepOutcome& outcome);
[[nodiscard]] SweepOutcome decode_outcome(const std::string& payload);

}  // namespace red::explore
