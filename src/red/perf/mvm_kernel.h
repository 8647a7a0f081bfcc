// Layout-optimized bit-serial MVM kernels.
//
// These are the fast counterparts of LogicalXbar::mvm_bit_accurate()'s
// original column-major walk. The primary path works on packed bit-planes:
// every stored-level bit of a column lives in LogicalXbar's packed weight
// planes (one 64-bit-word bitmap per level bit), the input's bit-planes are
// packed the same way into the workspace, and the per-(pulse, slice) analog
// integration collapses to popcount(input_plane & weight_plane) sums — wide
// enough to vectorize. Two regimes:
//
//  * ideal ADC — no clipping can occur, so the pulse/slice decomposition is
//    algebraically collapsible: out[c] = sum_j pw(j) * sum_u 2^u *
//    popcount(in_plane_j & w_plane_u[c]) minus the offset correction, where
//    pw(j) = ±2^j is the bit-j pulse weight.
//  * clipped ADC — per (column, slice) the cell_bits weight planes are
//    popcount-combined into per-input-plane lane sums; the per-pulse DAC
//    digits then recombine and saturate scalar-side, exactly like the
//    reference (clip counts included).
//
// The popcount inner loop dispatches at runtime over the CPU's ISA (see
// MvmIsa): a portable std::popcount build always exists, with POPCNT, AVX2,
// and AVX512-VPOPCNTDQ specializations selected by CPU detection, overridable
// via the RED_MVM_ISA environment variable or set_mvm_isa(). The original
// scalar kernels are kept selectable (MvmIsa::kScalar) as in-process
// equivalence oracles next to LogicalXbar::mvm_bit_accurate_reference().
//
// Every tier is bit-exact against the reference in outputs AND MvmStats
// (tests/fast_path_equivalence_test.cpp gates this).
//
// Callers that stream one input vector into many MVMs (RED's programmed
// layers feed each input pixel to every sub-crossbar that needs it) encode
// it once with encode_input() and run mvm_prepacked() on the assembled
// planes: pure popcount, no per-call range check or encode. The scalar pair
// works on int32 rows, so under MvmIsa::kScalar mvm_prepacked() runs the
// portable packed tier and counts its calls as portable; kScalar remains the
// kernel-level oracle for mvm_bit_accurate()/mvm_exact()/mvm_batch().
#pragma once

#include <cstdint>
#include <span>

#include "red/perf/workspace.h"
#include "red/xbar/crossbar.h"

namespace red::perf {

/// Instruction-set tiers of the MVM inner loop, ordered weakest to
/// strongest. kScalar is the pre-packed scalar kernel pair (kept as an
/// equivalence oracle); the rest are the packed bit-plane kernel with
/// increasingly wide popcount implementations.
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

/// Input bit-planes per 64-row word of a packed vector: abits rounded up to
/// a multiple of 4 (one 256-bit lane group); the pad planes stay zero.
[[nodiscard]] int packed_planes_pad(const xbar::QuantConfig& q);

/// Range-check `input` (ContractViolation on an activation outside the
/// abits/DAC range, exactly as the MVM entries check it), summarize it, and
/// bit-pack it word-major into `planes`: ceil(size / 64) * packed_planes_pad(q)
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

/// Batched MVM over caller-packed inputs: vector v's planes are the
/// xbar.packed_words() * packed_planes_pad() words at planes[v * that] and
/// its summary is sums[v] (batch = sums.size()). Outputs, stats and
/// telemetry equal mvm_batch() on the decoded inputs (bit_accurate picks the
/// configured ADC, else exact semantics). Under MvmIsa::kScalar it runs and
/// counts the portable tier. Returns batch * cols() results in `ws.out`.
std::span<const std::int64_t> mvm_prepacked(const xbar::LogicalXbar& xbar,
                                            std::span<const std::uint64_t> planes,
                                            std::span<const EncodeSummary> sums,
                                            bool bit_accurate, MvmWorkspace& ws,
                                            xbar::MvmStats* stats = nullptr);

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
