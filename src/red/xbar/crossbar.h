// Logical ReRAM crossbar: a rows x cols signed-weight matrix stored as
// offset-encoded, bit-sliced cell levels, executing bit-serial MVM.
//
// Execution paths:
//  * mvm()      — fast path. With an ideal ADC the analog pipeline is
//                 lossless, so the MVM equals an exact integer dot product
//                 on the encode/decode round-tripped weights. Activity
//                 (pulses, conversions, row drives) is counted analytically
//                 from the inputs.
//  * mvm_bit_accurate() — simulates every slice column and every input bit
//                 plane through the ADC transfer function. This is the path
//                 that models a clipped ADC; with an ideal ADC it must equal
//                 mvm() bit-exactly (asserted by tests). Implemented by the
//                 layout-optimized kernels in red/perf/mvm_kernel.h.
//  * mvm_bit_accurate_reference() — the original straight-line simulation of
//                 the same semantics, kept as the equivalence oracle for the
//                 fast kernels (and as the "before" in bench_micro_simulator).
//
// Cell levels are stored plane-major: levels()[s] is one contiguous
// rows x cols row-major matrix holding weight slice s, so the bit-serial
// inner loop is a contiguous row sweep instead of a strided gather.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "red/perf/workspace.h"
#include "red/xbar/quant_config.h"

namespace red::xbar {

/// Activity counters accumulated across MVM calls.
struct MvmStats {
  std::int64_t mvm_ops = 0;       ///< crossbar accesses (cycles)
  std::int64_t row_drives = 0;    ///< wordlines driven with a non-zero input
  std::int64_t mac_pulses = 0;    ///< cell-level MAC pulses ('1' bits x phys cols)
  std::int64_t conversions = 0;   ///< read-circuit conversions (phys cols x abits)
  std::int64_t adc_clips = 0;     ///< conversions that saturated (clipped ADC)

  MvmStats& operator+=(const MvmStats& o);

  friend bool operator==(const MvmStats&, const MvmStats&) = default;
};

class LogicalXbar {
 public:
  /// Program the crossbar with `weights` in row-major order (rows x cols).
  LogicalXbar(std::int64_t rows, std::int64_t cols, std::span<const std::int32_t> weights,
              QuantConfig config);

  /// Delta reprogramming for Monte Carlo trial fan-out (sim/montecarlo.h):
  /// same variation *law* as from-scratch programming (`var` in the
  /// QuantConfig) — per-cell stuck probability, and the exact discrete
  /// distribution of clamp(round(level + N(0, sigma))) per clean level — but
  /// sampled with a cheap counter-based generator and applied as sparse
  /// deltas over copied clean state (which must have variation disabled), so
  /// a trial costs a few cheap draws per cell instead of a
  /// std::normal_distribution variate. Deterministic in var.seed; the trial
  /// patterns differ from from-scratch programming's std::mt19937_64 stream
  /// (same distribution, different draws).
  LogicalXbar(const LogicalXbar& clean, const VariationModel& var, FastDeltaTag);

  /// Rebuild-from-levels: a sibling of `clean` whose cell levels were
  /// transformed externally (fault injection and repair, red/fault).
  /// `levels` must be a plane-major [slice][row][col] array of clean's
  /// geometry; stored weights, column level sums, and the lossless-ADC cache
  /// are re-derived from it. `stats` records what the transformation did.
  LogicalXbar(const LogicalXbar& clean, std::vector<std::uint8_t> levels,
              VariationStats stats);

  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t cols() const { return cols_; }
  [[nodiscard]] std::int64_t phys_cols() const { return cols_ * config_.slices(); }
  [[nodiscard]] const QuantConfig& config() const { return config_; }

  /// Weight stored at (r, c) after the encode/decode round trip (lossless for
  /// in-range weights; exposed for tests).
  [[nodiscard]] std::int32_t stored_weight(std::int64_t r, std::int64_t c) const;

  /// Round-tripped weights, row-major (the matrix mvm() multiplies by).
  [[nodiscard]] std::span<const std::int32_t> stored_weights() const { return weights_; }

  /// Contiguous rows x cols row-major matrix of cell levels for slice `s`.
  [[nodiscard]] const std::uint8_t* level_plane(int s) const {
    return levels_.data() + static_cast<std::size_t>(s) * static_cast<std::size_t>(rows_ * cols_);
  }

  /// Cell level at (r, c, slice s).
  [[nodiscard]] std::uint8_t level(std::int64_t r, std::int64_t c, int s) const {
    return level_plane(s)[static_cast<std::size_t>(r * cols_ + c)];
  }

  /// Packed weight bit-planes backing the clipped-ADC popcount kernel: per
  /// column, one 64-bit-word bitmap per stored-level bit. Plane u =
  /// s * cell_bits + t holds bit t of slice s over the rows (bit r of word
  /// r/64), so there are slices() * cell_bits planes — one per level bit,
  /// covering out-of-range levels a fault or stuck-at-max cell can program
  /// into a partial top slice. Built by every constructor (sparse deltas
  /// update them in place) only when the configured ADC clips: ideal-ADC and
  /// exact MVMs run a GEMV over stored_weights() and never read them.
  [[nodiscard]] int packed_weight_planes() const {
    return config_.slices() * config_.cell_bits;
  }

  /// 64-bit words per packed plane: ceil(rows / 64).
  [[nodiscard]] std::int64_t packed_words() const { return packed_words_; }

  /// The packed_weight_planes() consecutive planes (packed_words() words
  /// each) of column `c`, plane-major. Clipped ADCs only.
  [[nodiscard]] const std::uint64_t* packed_col_planes(std::int64_t c) const {
    return packed_planes_.data() +
           static_cast<std::size_t>(c) * static_cast<std::size_t>(packed_weight_planes()) *
               static_cast<std::size_t>(packed_words_);
  }

  /// Fast exact MVM (ideal ADC semantics). input.size() == rows().
  [[nodiscard]] std::vector<std::int64_t> mvm(std::span<const std::int32_t> input,
                                              MvmStats* stats = nullptr) const;

  /// Allocation-free exact MVM into a reusable workspace; the returned span
  /// (cols() results) lives in `ws` until the next kernel call on it.
  [[nodiscard]] std::span<const std::int64_t> mvm(std::span<const std::int32_t> input,
                                                  perf::MvmWorkspace& ws,
                                                  MvmStats* stats = nullptr) const;

  /// Slice/bit-plane-level simulation honoring the configured ADC.
  [[nodiscard]] std::vector<std::int64_t> mvm_bit_accurate(std::span<const std::int32_t> input,
                                                           MvmStats* stats = nullptr) const;

  /// Allocation-free bit-accurate MVM into a reusable workspace.
  [[nodiscard]] std::span<const std::int64_t> mvm_bit_accurate(
      std::span<const std::int32_t> input, perf::MvmWorkspace& ws,
      MvmStats* stats = nullptr) const;

  /// Batched MVM over `batch` concatenated input vectors (amortizes encoding
  /// setup and buffers). Returns batch * cols() results, vector-major, in
  /// `ws`; stats accumulate exactly as `batch` single calls would.
  [[nodiscard]] std::span<const std::int64_t> mvm_batch(std::span<const std::int32_t> inputs,
                                                        std::int64_t batch, bool bit_accurate,
                                                        perf::MvmWorkspace& ws,
                                                        MvmStats* stats = nullptr) const;

  /// Original unoptimized slice/bit-plane walk: the equivalence oracle for
  /// the fast kernels. Identical outputs and stats to mvm_bit_accurate().
  [[nodiscard]] std::vector<std::int64_t> mvm_bit_accurate_reference(
      std::span<const std::int32_t> input, MvmStats* stats = nullptr) const;

  /// Smallest clipped-ADC resolution that keeps mvm_bit_accurate lossless for
  /// this crossbar (worst-case column sum of one bit plane). Cached at
  /// program time; O(1) per call.
  [[nodiscard]] int lossless_adc_bits() const { return lossless_adc_bits_; }

  /// What the configured VariationModel did at program time.
  [[nodiscard]] const VariationStats& variation_stats() const { return variation_stats_; }

 private:
  /// Rebuild packed_planes_ from levels_, or leave them empty for an ideal
  /// ADC (program/reprogram constructors; the sparse-delta constructor
  /// patches the copied planes bit-by-bit instead).
  void rebuild_packed_planes();

  std::int64_t rows_;
  std::int64_t cols_;
  QuantConfig config_;
  std::vector<std::int32_t> weights_;      ///< stored signed weights, row-major
  std::vector<std::uint8_t> levels_;       ///< cell levels, plane-major [slice][row][col]
  /// Packed weight bit-planes, [(c * packed_weight_planes() + u) * words + w]
  /// (see packed_col_planes()); empty for an ideal ADC.
  std::vector<std::uint64_t> packed_planes_;
  std::int64_t packed_words_ = 0;
  /// Per-(col, slice) programmed-level sums backing lossless_adc_bits_; kept
  /// so delta reprogramming can update the cache incrementally.
  std::vector<std::int64_t> col_level_sums_;
  int lossless_adc_bits_ = 1;
  VariationStats variation_stats_;
};

}  // namespace red::xbar
