// Fast MVM kernels: an integer GEMV for ideal ADCs, packed bit-plane
// popcount kernels for clipped ones.
//
// These are the fast counterparts of LogicalXbar::mvm_bit_accurate()'s
// original column-major walk. Two regimes:
//
//  * ideal ADC (and every exact mvm()) — no conversion can clip, so the
//    pulse/slice decomposition recombines to the exact integer dot product
//    over the decoded weights: out[c] = sum_r in[r] * stored_weights()[r][c].
//    The kernel is that GEMV, accumulated in int64, with no input encode.
//  * clipped ADC — every stored-level bit of a column lives in LogicalXbar's
//    packed weight planes (one 64-bit-word bitmap per level bit), the input's
//    bit-planes are packed the same way, and per (column, slice) the
//    cell_bits weight planes are popcount-combined into per-input-plane lane
//    sums; the per-pulse DAC digits then recombine and saturate scalar-side,
//    exactly like the reference (clip counts included).
//
// Both inner loops dispatch at runtime over the CPU's ISA (see MvmIsa): a
// portable build always exists, with POPCNT, AVX2 and AVX512 specializations
// selected by CPU detection, overridable via the RED_MVM_ISA environment
// variable or set_mvm_isa(). The GEMV has portable (also run at the popcnt
// tier), AVX2 and AVX-512 forms. The original scalar kernels are kept
// selectable (MvmIsa::kScalar) as in-process equivalence oracles next to
// LogicalXbar::mvm_bit_accurate_reference().
//
// Every tier is bit-exact against the reference in outputs AND MvmStats
// (tests/fast_path_equivalence_test.cpp gates this).
//
// Callers that stream one input vector into many MVMs (RED's programmed
// layers feed each input pixel to every sub-crossbar that needs it) check
// and summarize it once: with an ideal ADC they add one BlockMvm GEMV per
// driven row block straight from that vector; with a clipped ADC they pack
// it once with encode_input() and run mvm_prepacked() on the assembled
// planes. Neither repeats the range check or the encode per call. Under
// MvmIsa::kScalar both run and count the portable tier; kScalar remains the
// kernel-level oracle for mvm_bit_accurate()/mvm_exact()/mvm_batch().
#pragma once

#include <cstdint>
#include <span>

#include "red/perf/workspace.h"
#include "red/xbar/crossbar.h"

namespace red::perf {

/// Instruction-set tiers of the MVM inner loops, ordered weakest to
/// strongest. kScalar is the pre-packed scalar kernel pair (kept as an
/// equivalence oracle); the rest are the GEMV and packed bit-plane kernels
/// with increasingly wide implementations.
enum class MvmIsa : int {
  kScalar = 0,
  kPortable = 1,
  kPopcnt = 2,
  kAvx2 = 3,
  kAvx512 = 4,
};

/// Strongest tier this CPU supports (kPortable at minimum).
[[nodiscard]] MvmIsa mvm_detected_isa();

/// Tier the kernels currently dispatch to. Defaults to mvm_detected_isa(),
/// or to the RED_MVM_ISA environment variable (scalar | portable | popcnt |
/// avx2 | avx512, clamped to what the CPU supports) when set.
[[nodiscard]] MvmIsa mvm_active_isa();

/// Select the dispatch tier (tests/benchmarks). Requests above
/// mvm_detected_isa() clamp down; returns the tier actually installed.
MvmIsa set_mvm_isa(MvmIsa isa);

/// Lower-case tier name ("scalar", "portable", ...).
[[nodiscard]] const char* mvm_isa_name(MvmIsa isa);

/// Activity of one input vector: what an MVM call adds to MvmStats besides
/// its clip count. Summaries of disjoint row sets add up.
struct EncodeSummary {
  std::int64_t input_sum = 0;
  std::int64_t drives = 0;      ///< rows with a non-zero input
  std::int64_t pulse_rows = 0;  ///< sum over rows of per-row pulse counts

  EncodeSummary& operator+=(const EncodeSummary& o) {
    input_sum += o.input_sum;
    drives += o.drives;
    pulse_rows += o.pulse_rows;
    return *this;
  }
};

/// Range-check `input` (ContractViolation on an activation outside the
/// abits/DAC range, exactly as the MVM entries check it) and summarize it.
[[nodiscard]] EncodeSummary summarize_input(std::span<const std::int32_t> input,
                                            const xbar::QuantConfig& q);

/// Input bit-planes per 64-row word of a packed vector: abits rounded up to
/// a multiple of 4 (one 256-bit lane group); the pad planes stay zero.
[[nodiscard]] int packed_planes_pad(const xbar::QuantConfig& q);

/// summarize_input(), then bit-pack `input` word-major into `planes`: ceil(size / 64) * packed_planes_pad(q)
/// words, bit r % 64 of planes[(r / 64) * planes_pad + j] = bit j of
/// input[r] & (2^abits - 1).
EncodeSummary encode_input(std::span<const std::int32_t> input, const xbar::QuantConfig& q,
                           std::uint64_t* planes);

/// OR a packed vector (`src_words` words per plane, encode_input layout) into
/// a wider packed vector `dst` (`dst_words` words per plane) so that its row
/// r lands on row `row0 + r`; rows straddle a word boundary when row0 % 64 != 0.
/// The shifted rows must fit in dst.
void or_packed_at(std::uint64_t* dst, std::int64_t dst_words, const std::uint64_t* src,
                  std::int64_t src_words, int planes_pad, std::int64_t row0);

/// Batched clipped-ADC MVM over caller-packed inputs (the crossbar's ADC
/// must clip): vector v's planes are the xbar.packed_words() *
/// packed_planes_pad() words at planes[v * that] and its summary is sums[v]
/// (batch = sums.size()). Outputs, stats and telemetry equal bit-accurate
/// mvm_batch() on the decoded inputs. Under MvmIsa::kScalar it runs and
/// counts the portable tier. Returns batch * cols() results in `ws.out`.
std::span<const std::int64_t> mvm_prepacked(const xbar::LogicalXbar& xbar,
                                            std::span<const std::uint64_t> planes,
                                            std::span<const EncodeSummary> sums,
                                            MvmWorkspace& ws, xbar::MvmStats* stats = nullptr);

/// Ideal-ADC MVMs of one crossbar assembled from row blocks, for callers
/// that hold the input as one range-checked vector per block (RED: each
/// active sub-crossbar's C rows take one bound pixel). add() is one integer
/// GEMV on the tier active at construction, with no check or encode;
/// end_call() accounts one MVM of the summed block summaries exactly as
/// mvm_exact() would for the assembled input; the destructor records the
/// calls in mvm.calls.<isa> / mvm.* telemetry. Under MvmIsa::kScalar it runs
/// and counts the portable tier.
class BlockMvm {
 public:
  BlockMvm(const xbar::LogicalXbar& xbar, xbar::MvmStats* stats);
  ~BlockMvm();
  BlockMvm(const BlockMvm&) = delete;
  BlockMvm& operator=(const BlockMvm&) = delete;

  /// out[c] += sum_r in[r] * stored_weights()[(row0 + r) * cols() + c], for
  /// c < cols() and r < in.size().
  void add(std::int64_t row0, std::span<const std::int32_t> in, std::int64_t* out) const;

  /// Account one MVM whose driven rows summarize to `sum`.
  void end_call(const EncodeSummary& sum);

 private:
  using GemvFn = void (*)(const std::int32_t* in, std::int64_t rows, const std::int32_t* w,
                          std::int64_t cols, std::int64_t* out);

  const xbar::LogicalXbar& xbar_;
  xbar::MvmStats* stats_;
  MvmIsa isa_;
  GemvFn fn_;
  xbar::MvmStats before_;
  std::int64_t calls_ = 0;
};

/// Bit-accurate MVM through the configured ADC. Returns a span of cols()
/// results living in `ws.out` (invalidated by the next kernel call on `ws`).
std::span<const std::int64_t> mvm_bit_accurate(const xbar::LogicalXbar& xbar,
                                               std::span<const std::int32_t> input,
                                               MvmWorkspace& ws,
                                               xbar::MvmStats* stats = nullptr);

/// Exact integer MVM (ideal-ADC semantics; the workspace twin of
/// LogicalXbar::mvm). Returns a span of cols() results in `ws.out`.
std::span<const std::int64_t> mvm_exact(const xbar::LogicalXbar& xbar,
                                        std::span<const std::int32_t> input, MvmWorkspace& ws,
                                        xbar::MvmStats* stats = nullptr);

/// Batched MVM: `inputs` holds `batch` concatenated input vectors of
/// rows() elements each. Encoding setup and workspace buffers are amortized
/// across the batch. Returns batch * cols() results, vector-major, in
/// `ws.out`; stats accumulate exactly as `batch` single calls would.
std::span<const std::int64_t> mvm_batch(const xbar::LogicalXbar& xbar,
                                        std::span<const std::int32_t> inputs, std::int64_t batch,
                                        bool bit_accurate, MvmWorkspace& ws,
                                        xbar::MvmStats* stats = nullptr);

}  // namespace red::perf
