#include "red/perf/mvm_kernel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <limits>
#include <string>

#include "red/common/contracts.h"
#include "red/common/error.h"
#include "red/telemetry/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#define RED_MVM_X86 1
// GCC 12's 512-bit intrinsics pass a self-initialized _mm512_undefined_*()
// operand to their masked builtins, which -Wmaybe-uninitialized reports at
// every inlined use (GCC bug 105593); the warning is about the header only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#include <immintrin.h>
#endif
#else
#define RED_MVM_X86 0
#endif

namespace red::perf {

namespace {

using xbar::AdcMode;
using xbar::LogicalXbar;
using xbar::MvmStats;
using xbar::QuantConfig;

/// Wordline pulses transmitting `a` ('1' bits, or non-zero DAC digits).
/// Range-checked equivalent of xbar::pulse_count without the per-call
/// config validation and heap traffic.
int fast_pulse_count(std::int32_t a, const QuantConfig& q) {
  if (q.dac_bits == 1) {
    const std::int64_t half = std::int64_t{1} << (q.abits - 1);
    RED_EXPECTS_MSG(a >= -half && a < half, "activation outside abits signed range");
    const std::uint64_t u =
        static_cast<std::uint64_t>(a) & ((std::uint64_t{1} << q.abits) - 1);
    return std::popcount(u);
  }
  RED_EXPECTS_MSG(a >= 0, "multi-bit DAC streaming requires non-negative activations");
  RED_EXPECTS_MSG(a < (std::int64_t{1} << q.abits), "activation exceeds abits unsigned range");
  const int digit_max = (1 << q.dac_bits) - 1;
  int n = 0;
  std::int64_t u = a;
  for (int b = 0; b < q.pulses(); ++b) {
    n += (u & digit_max) != 0 ? 1 : 0;
    u >>= q.dac_bits;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Scalar oracle kernels (MvmIsa::kScalar): the pre-packed row-sweep pair,
// kept bit-for-bit as in-process equivalence oracles for the packed tiers.
// ---------------------------------------------------------------------------

/// Write the pulse-plane-major streams: streams[b * rows + r] = digit b of
/// input[r]. Inputs must already be range-checked (summarize_input).
void encode_streams(std::span<const std::int32_t> input, const QuantConfig& q,
                    std::uint8_t* streams) {
  const auto rows = static_cast<std::int64_t>(input.size());
  const int num_pulses = q.pulses();
  if (q.dac_bits == 1) {
    const std::uint64_t mask = (std::uint64_t{1} << q.abits) - 1;
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::uint64_t u = static_cast<std::uint64_t>(input[static_cast<std::size_t>(r)]) &
                              mask;
      for (int b = 0; b < num_pulses; ++b)
        streams[static_cast<std::size_t>(b) * rows + r] =
            static_cast<std::uint8_t>((u >> b) & 1u);
    }
    return;
  }
  const int digit_max = (1 << q.dac_bits) - 1;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t u = input[static_cast<std::size_t>(r)];
    for (int b = 0; b < num_pulses; ++b) {
      streams[static_cast<std::size_t>(b) * rows + r] =
          static_cast<std::uint8_t>(u & digit_max);
      u >>= q.dac_bits;
    }
  }
}

/// Ideal-ADC bit-accurate MVM: with no clipping the pulse/slice decomposition
/// collapses algebraically, so one signed row-sweep per slice suffices:
/// out[c] = sum_s (sum_r in[r] * plane_s[r][c]) << (cell_bits * s) minus the
/// offset-encoding correction. Bit-exact vs the reference by construction.
void ideal_kernel(const LogicalXbar& xbar, std::span<const std::int32_t> input,
                  const EncodeSummary& sum, MvmWorkspace& ws, std::int64_t* out) {
  const std::int64_t rows = xbar.rows();
  const std::int64_t cols = xbar.cols();
  const QuantConfig& q = xbar.config();
  const int slices = q.slices();

  std::int64_t* acc = ws.acc.data();
  std::int64_t* current = ws.current.data();
  std::fill(acc, acc + cols, std::int64_t{0});
  for (int s = 0; s < slices; ++s) {
    std::fill(current, current + cols, std::int64_t{0});
    const std::uint8_t* plane = xbar.level_plane(s);
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t in = input[static_cast<std::size_t>(r)];
      if (in == 0) continue;
      const std::uint8_t* row = plane + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) current[c] += in * row[c];
    }
    const int shift = q.cell_bits * s;
    for (std::int64_t c = 0; c < cols; ++c) acc[c] += current[c] << shift;
  }
  const std::int64_t correction = std::int64_t{q.weight_offset()} * sum.input_sum;
  for (std::int64_t c = 0; c < cols; ++c) out[c] = acc[c] - correction;
}

/// Clipped-ADC bit-accurate MVM: integrates every (pulse, slice) plane
/// through the saturating ADC exactly like the reference, but sweeps
/// contiguous level-plane rows over a per-pulse compacted driven-row list.
/// Returns the number of saturated conversions.
std::int64_t clipped_kernel(const LogicalXbar& xbar, MvmWorkspace& ws, std::int64_t input_sum,
                            std::int64_t* out) {
  const std::int64_t rows = xbar.rows();
  const std::int64_t cols = xbar.cols();
  const QuantConfig& q = xbar.config();
  const int slices = q.slices();
  const int num_pulses = q.pulses();
  const std::int64_t clip_max = (std::int64_t{1} << q.adc.bits) - 1;

  std::int64_t* acc = ws.acc.data();
  std::int64_t* current = ws.current.data();
  std::fill(out, out + cols, std::int64_t{0});
  std::int64_t clips = 0;
  for (int b = 0; b < num_pulses; ++b) {
    // Compact the driven wordlines of this pulse once, reused per slice.
    const std::uint8_t* sp = ws.streams.data() + static_cast<std::size_t>(b) * rows;
    std::int64_t nd = 0;
    for (std::int64_t r = 0; r < rows; ++r)
      if (sp[r] != 0) {
        ws.driven_rows[static_cast<std::size_t>(nd)] = static_cast<std::int32_t>(r);
        ws.driven_vals[static_cast<std::size_t>(nd)] = sp[r];
        ++nd;
      }
    // An undriven pulse integrates zero current on every column: no output
    // contribution and (since clip_max >= 1) no clips. Skip it.
    if (nd == 0) continue;

    // Bit-serial: the MSB plane carries the two's-complement negative weight.
    // Multi-bit DAC: digits are unsigned (non-negative activations only).
    const std::int64_t pulse_weight = (q.dac_bits == 1 && b == q.abits - 1)
                                          ? -(std::int64_t{1} << b)
                                          : (std::int64_t{1} << (q.dac_bits * b));
    std::fill(acc, acc + cols, std::int64_t{0});
    for (int s = 0; s < slices; ++s) {
      std::fill(current, current + cols, std::int64_t{0});
      const std::uint8_t* plane = xbar.level_plane(s);
      if (q.dac_bits == 1) {
        for (std::int64_t k = 0; k < nd; ++k) {
          const std::uint8_t* row = plane + std::int64_t{ws.driven_rows[static_cast<std::size_t>(k)]} * cols;
          for (std::int64_t c = 0; c < cols; ++c) current[c] += row[c];
        }
      } else {
        for (std::int64_t k = 0; k < nd; ++k) {
          const std::int64_t d = ws.driven_vals[static_cast<std::size_t>(k)];
          const std::uint8_t* row = plane + std::int64_t{ws.driven_rows[static_cast<std::size_t>(k)]} * cols;
          for (std::int64_t c = 0; c < cols; ++c) current[c] += d * row[c];
        }
      }
      const int shift = q.cell_bits * s;
      for (std::int64_t c = 0; c < cols; ++c) {
        std::int64_t cur = current[c];
        if (cur > clip_max) {
          cur = clip_max;
          ++clips;
        }
        acc[c] += cur << shift;
      }
    }
    for (std::int64_t c = 0; c < cols; ++c) out[c] += pulse_weight * acc[c];
  }
  const std::int64_t correction = std::int64_t{q.weight_offset()} * input_sum;
  for (std::int64_t c = 0; c < cols; ++c) out[c] -= correction;
  return clips;
}

// ---------------------------------------------------------------------------
// Integer GEMV kernels (ideal ADC and exact MVMs, MvmIsa::kPortable and up).
//
// With an ideal ADC no conversion clips, so the pulse/slice decomposition
// recombines to the exact dot product over the decoded weights
// (stored_weights(), offset already removed). Every kernel accumulates
//
//   out[c] += sum_{r < rows} in[r] * w[r * cols + c]
//
// in int64. AVX2/AVX-512 run across columns (one broadcast input row against
// 4 or 8 int64 column lanes, in column tiles over ~32 KB row chunks) when
// cols fills a vector, else across rows. They multiply zero rows instead of
// branching on them: on real activations that branch mispredicts often
// enough to cost more than the rows it skips.
// ---------------------------------------------------------------------------

using GemvFn = void (*)(const std::int32_t* in, std::int64_t rows, const std::int32_t* w,
                        std::int64_t cols, std::int64_t* out);

void gemv_portable(const std::int32_t* in, std::int64_t rows, const std::int32_t* w,
                   std::int64_t cols, std::int64_t* out) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t x = in[r];
    if (x == 0) continue;
    const std::int32_t* wr = w + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) out[c] += x * wr[c];
  }
}

#if RED_MVM_X86

/// Rows per chunk of a column-tiled sweep: about 32 KB of weights, so a
/// chunk's cache lines and pages stay resident while every column tile
/// passes over it. One tile sweeping all rows of a wide block strides a
/// whole row per step (2 KB on dcgan_l1) and misses the TLB and the
/// hardware prefetchers.
std::int64_t tile_chunk_rows(std::int64_t cols) {
  constexpr std::int64_t kChunkBytes = 32 * 1024;
  return std::max<std::int64_t>(1, kChunkBytes / (cols * std::int64_t{sizeof(std::int32_t)}));
}

/// Row-vectorized form for cols < kLanes: kLanes rows of the row-major block
/// are kCols consecutive vectors of kLanes weights; lane i of vector v holds
/// row (v * kLanes + i) / kCols, column (v * kLanes + i) % kCols. Each vector
/// keeps its own accumulator, reduced into columns once at the end. idx[v]
/// is that row index at the even int32 positions (the low half of each
/// int64 lane, all vpmuldq reads).
template <int kLanes, int kCols>
void gemv_row_indices(std::int32_t (&idx)[kCols][2 * kLanes]) {
  for (int v = 0; v < kCols; ++v)
    for (int i = 0; i < kLanes; ++i) {
      idx[v][2 * i] = (v * kLanes + i) / kCols;
      idx[v][2 * i + 1] = 0;
    }
}

template <int kLanes, int kCols>
void gemv_row_finish(const std::int64_t (&lanes)[kCols][kLanes], const std::int32_t* in,
                     std::int64_t r0, std::int64_t rows, const std::int32_t* w,
                     std::int64_t* out) {
  std::int64_t acc[kCols] = {};
  for (int v = 0; v < kCols; ++v)
    for (int i = 0; i < kLanes; ++i) acc[(v * kLanes + i) % kCols] += lanes[v][i];
  for (std::int64_t r = r0; r < rows; ++r)
    for (int c = 0; c < kCols; ++c) acc[c] += std::int64_t{in[r]} * w[r * kCols + c];
  for (int c = 0; c < kCols; ++c) out[c] += acc[c];
}

template <int kCols>
__attribute__((target("avx2"))) void gemv_rows_avx2(const std::int32_t* in, std::int64_t rows,
                                                    const std::int32_t* w, std::int64_t* out) {
  std::int32_t idx_tab[kCols][8];
  gemv_row_indices<4, kCols>(idx_tab);
  __m256i idx[kCols], acc[kCols];
  for (int v = 0; v < kCols; ++v) {
    idx[v] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx_tab[v]));
    acc[v] = _mm256_setzero_si256();
  }
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const __m256i x = _mm256_zextsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + r)));
    const std::int32_t* wr = w + r * kCols;
    for (int v = 0; v < kCols; ++v) {
      const __m256i wv = _mm256_cvtepi32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(wr + 4 * v)));
      acc[v] = _mm256_add_epi64(acc[v],
                                _mm256_mul_epi32(_mm256_permutevar8x32_epi32(x, idx[v]), wv));
    }
  }
  std::int64_t lanes[kCols][4];
  for (int v = 0; v < kCols; ++v)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes[v]), acc[v]);
  gemv_row_finish<4, kCols>(lanes, in, r, rows, w, out);
}

/// Column-vectorized AVX2 tile: kVecs * 4 columns (the last vector masked to
/// `tail` columns) held in registers across the whole row sweep.
template <int kVecs>
__attribute__((target("avx2"))) void gemv_cols_avx2(const std::int32_t* in, std::int64_t rows,
                                                    const std::int32_t* w, std::int64_t cols,
                                                    std::int64_t* out, int tail) {
  const __m128i tail32 = _mm_cmpgt_epi32(_mm_set1_epi32(tail), _mm_setr_epi32(0, 1, 2, 3));
  const __m256i tail64 = _mm256_cvtepi32_epi64(tail32);
  constexpr int kLast = kVecs - 1;
  __m256i acc[kVecs];
  for (int v = 0; v < kLast; ++v)
    acc[v] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + 4 * v));
  acc[kLast] = _mm256_maskload_epi64(reinterpret_cast<const long long*>(out + 4 * kLast), tail64);
  for (std::int64_t r = 0; r < rows; ++r) {
    const __m256i b = _mm256_set1_epi64x(in[r]);
    const std::int32_t* wr = w + r * cols;
    for (int v = 0; v < kLast; ++v)
      acc[v] = _mm256_add_epi64(
          acc[v], _mm256_mul_epi32(_mm256_cvtepi32_epi64(_mm_loadu_si128(
                                       reinterpret_cast<const __m128i*>(wr + 4 * v))),
                                   b));
    acc[kLast] = _mm256_add_epi64(
        acc[kLast],
        _mm256_mul_epi32(_mm256_cvtepi32_epi64(_mm_maskload_epi32(wr + 4 * kLast, tail32)), b));
  }
  for (int v = 0; v < kLast; ++v)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4 * v), acc[v]);
  _mm256_maskstore_epi64(reinterpret_cast<long long*>(out + 4 * kLast), tail64, acc[kLast]);
}

void gemv_avx2(const std::int32_t* in, std::int64_t rows, const std::int32_t* w,
               std::int64_t cols, std::int64_t* out) {
  switch (cols) {
    case 1:
      return gemv_rows_avx2<1>(in, rows, w, out);
    case 2:
      return gemv_rows_avx2<2>(in, rows, w, out);
    case 3:
      return gemv_rows_avx2<3>(in, rows, w, out);
    default:
      break;
  }
  const std::int64_t chunk = tile_chunk_rows(cols);
  for (std::int64_t r0 = 0; r0 < rows; r0 += chunk) {
    const std::int64_t nr = std::min(chunk, rows - r0);
    const std::int32_t* wc = w + r0 * cols;
    for (std::int64_t c0 = 0; c0 < cols; c0 += 16) {
      const int n = static_cast<int>(std::min<std::int64_t>(16, cols - c0));
      const int tail = n - 4 * ((n - 1) / 4);
      switch ((n + 3) / 4) {
        case 1:
          gemv_cols_avx2<1>(in + r0, nr, wc + c0, cols, out + c0, tail);
          break;
        case 2:
          gemv_cols_avx2<2>(in + r0, nr, wc + c0, cols, out + c0, tail);
          break;
        case 3:
          gemv_cols_avx2<3>(in + r0, nr, wc + c0, cols, out + c0, tail);
          break;
        default:
          gemv_cols_avx2<4>(in + r0, nr, wc + c0, cols, out + c0, tail);
          break;
      }
    }
  }
}

template <int kCols>
__attribute__((target("avx512f,avx512vl"))) void gemv_rows_avx512(const std::int32_t* in,
                                                                  std::int64_t rows,
                                                                  const std::int32_t* w,
                                                                  std::int64_t* out) {
  std::int32_t idx_tab[kCols][16];
  gemv_row_indices<8, kCols>(idx_tab);
  __m512i idx[kCols], acc[kCols];
  for (int v = 0; v < kCols; ++v) {
    idx[v] = _mm512_loadu_si512(idx_tab[v]);
    acc[v] = _mm512_setzero_si512();
  }
  std::int64_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    const __m512i x = _mm512_zextsi256_si512(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + r)));
    const std::int32_t* wr = w + r * kCols;
    for (int v = 0; v < kCols; ++v) {
      const __m512i wv = _mm512_cvtepi32_epi64(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wr + 8 * v)));
      acc[v] = _mm512_add_epi64(acc[v], _mm512_mul_epi32(_mm512_permutexvar_epi32(idx[v], x), wv));
    }
  }
  std::int64_t lanes[kCols][8];
  for (int v = 0; v < kCols; ++v) _mm512_storeu_si512(lanes[v], acc[v]);
  gemv_row_finish<8, kCols>(lanes, in, r, rows, w, out);
}

/// Column-vectorized AVX-512 tile: kVecs * 8 columns (the last vector masked
/// to `tail`) held in registers across the whole row sweep.
template <int kVecs>
__attribute__((target("avx512f,avx512vl"))) void gemv_cols_avx512(
    const std::int32_t* in, std::int64_t rows, const std::int32_t* w, std::int64_t cols,
    std::int64_t* out, __mmask8 tail) {
  constexpr int kLast = kVecs - 1;
  __m512i acc[kVecs];
  for (int v = 0; v < kLast; ++v) acc[v] = _mm512_loadu_si512(out + 8 * v);
  acc[kLast] = _mm512_maskz_loadu_epi64(tail, out + 8 * kLast);
  for (std::int64_t r = 0; r < rows; ++r) {
    const __m512i b = _mm512_set1_epi64(in[r]);
    const std::int32_t* wr = w + r * cols;
    for (int v = 0; v < kLast; ++v)
      acc[v] = _mm512_add_epi64(
          acc[v], _mm512_mul_epi32(_mm512_cvtepi32_epi64(_mm256_loadu_si256(
                                       reinterpret_cast<const __m256i*>(wr + 8 * v))),
                                   b));
    acc[kLast] = _mm512_add_epi64(
        acc[kLast],
        _mm512_mul_epi32(_mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(tail, wr + 8 * kLast)),
                         b));
  }
  for (int v = 0; v < kLast; ++v) _mm512_storeu_si512(out + 8 * v, acc[v]);
  _mm512_mask_storeu_epi64(out + 8 * kLast, tail, acc[kLast]);
}

void gemv_avx512(const std::int32_t* in, std::int64_t rows, const std::int32_t* w,
                 std::int64_t cols, std::int64_t* out) {
  switch (cols) {
    case 1:
      return gemv_rows_avx512<1>(in, rows, w, out);
    case 2:
      return gemv_rows_avx512<2>(in, rows, w, out);
    case 3:
      return gemv_rows_avx512<3>(in, rows, w, out);
    case 4:
      return gemv_rows_avx512<4>(in, rows, w, out);
    case 5:
      return gemv_rows_avx512<5>(in, rows, w, out);
    case 6:
      return gemv_rows_avx512<6>(in, rows, w, out);
    case 7:
      return gemv_rows_avx512<7>(in, rows, w, out);
    default:
      break;
  }
  const std::int64_t chunk = tile_chunk_rows(cols);
  for (std::int64_t r0 = 0; r0 < rows; r0 += chunk) {
    const std::int64_t nr = std::min(chunk, rows - r0);
    const std::int32_t* wc = w + r0 * cols;
    for (std::int64_t c0 = 0; c0 < cols; c0 += 32) {
      const int n = static_cast<int>(std::min<std::int64_t>(32, cols - c0));
      const auto tail = static_cast<__mmask8>((1u << (n - 8 * ((n - 1) / 8))) - 1u);
      switch ((n + 7) / 8) {
        case 1:
          gemv_cols_avx512<1>(in + r0, nr, wc + c0, cols, out + c0, tail);
          break;
        case 2:
          gemv_cols_avx512<2>(in + r0, nr, wc + c0, cols, out + c0, tail);
          break;
        case 3:
          gemv_cols_avx512<3>(in + r0, nr, wc + c0, cols, out + c0, tail);
          break;
        default:
          gemv_cols_avx512<4>(in + r0, nr, wc + c0, cols, out + c0, tail);
          break;
      }
    }
  }
}

#endif  // RED_MVM_X86

GemvFn gemv_fn(MvmIsa isa) {
  switch (isa) {
#if RED_MVM_X86
    case MvmIsa::kAvx2:
      return &gemv_avx2;
    case MvmIsa::kAvx512:
      return &gemv_avx512;
#endif
    default:
      return &gemv_portable;
  }
}

// ---------------------------------------------------------------------------
// Packed bit-plane kernels (clipped ADC, MvmIsa::kPortable and up).
//
// Both operand sides are bitmaps over the rows: LogicalXbar keeps one packed
// plane per stored-level bit u (weight planes, per column), and encode_packed
// lays down one plane per input bit j. The clipped kernel then reduces to
// weighted popcounts of plane intersections:
//
//   L[j][u] = popcount(in_plane_j & w_plane_u[c])   (ones shared by bit j of
//                                                    the input and bit u of
//                                                    the stored levels)
//
// lane_sums_* computes the only aggregate the kernels need — for a run of
// `ucount` consecutive weight planes, lanes[j] = sum_du (L[j][du] << du) —
// with the input planes word-major (all planes of word w adjacent) so one
// broadcast weight word feeds 4-lane SIMD popcounts.
// ---------------------------------------------------------------------------

/// Hard bounds from QuantConfig::validate: abits <= 16 input planes, padded
/// to a multiple of 4; slices() * cell_bits <= 19 weight planes.
constexpr int kMaxPlanesPad = 16;
constexpr int kMaxSlices = 16;

using LaneSumsFn = void (*)(const std::uint64_t* ip, std::int64_t words, int planes_pad,
                            const std::uint64_t* wplanes, int ucount, std::int64_t* lanes);

void lane_sums_portable(const std::uint64_t* ip, std::int64_t words, int planes_pad,
                        const std::uint64_t* wplanes, int ucount, std::int64_t* lanes) {
  std::fill(lanes, lanes + planes_pad, std::int64_t{0});
  for (int du = 0; du < ucount; ++du) {
    const std::uint64_t* wp = wplanes + static_cast<std::size_t>(du) * words;
    for (std::int64_t w = 0; w < words; ++w) {
      const std::uint64_t wv = wp[w];
      if (wv == 0) continue;  // bit-sparsity: empty weight words cost nothing
      const std::uint64_t* iw = ip + w * planes_pad;
      for (int j = 0; j < planes_pad; ++j)
        lanes[j] += static_cast<std::int64_t>(std::popcount(iw[j] & wv)) << du;
    }
  }
}

#if RED_MVM_X86

__attribute__((target("popcnt"))) void lane_sums_popcnt(const std::uint64_t* ip,
                                                        std::int64_t words, int planes_pad,
                                                        const std::uint64_t* wplanes, int ucount,
                                                        std::int64_t* lanes) {
  std::fill(lanes, lanes + planes_pad, std::int64_t{0});
  for (int du = 0; du < ucount; ++du) {
    const std::uint64_t* wp = wplanes + static_cast<std::size_t>(du) * words;
    for (std::int64_t w = 0; w < words; ++w) {
      const std::uint64_t wv = wp[w];
      if (wv == 0) continue;
      const std::uint64_t* iw = ip + w * planes_pad;
      for (int j = 0; j < planes_pad; ++j)
        lanes[j] += static_cast<std::int64_t>(std::popcount(iw[j] & wv)) << du;
    }
  }
}

/// AVX2 lane groups: one broadcast weight word ANDs against 4 input planes
/// per 256-bit vector; byte-wise nibble-LUT popcount (vpshufb) horizontally
/// summed into the 4 64-bit lanes by vpsadbw, shifted into plane-bit position
/// and accumulated per lane. kGroups = planes_pad / 4 is a template constant
/// so the accumulators stay in registers.
template <int kGroups>
__attribute__((target("avx2,popcnt"))) void lane_sums_avx2_impl(
    const std::uint64_t* ip, std::int64_t words, const std::uint64_t* wplanes, int ucount,
    std::int64_t* lanes) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3,
                       1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0F);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc[kGroups];
  for (int g = 0; g < kGroups; ++g) acc[g] = zero;
  for (int du = 0; du < ucount; ++du) {
    const std::uint64_t* wp = wplanes + static_cast<std::size_t>(du) * words;
    for (std::int64_t w = 0; w < words; ++w) {
      const __m256i wv = _mm256_set1_epi64x(static_cast<long long>(wp[w]));
      const std::uint64_t* iw = ip + w * (4 * kGroups);
      for (int g = 0; g < kGroups; ++g) {
        const __m256i x = _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(iw + 4 * g)), wv);
        const __m256i nib = _mm256_add_epi8(
            _mm256_shuffle_epi8(lut, _mm256_and_si256(x, low)),
            _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi32(x, 4), low)));
        acc[g] = _mm256_add_epi64(acc[g], _mm256_slli_epi64(_mm256_sad_epu8(nib, zero), du));
      }
    }
  }
  for (int g = 0; g < kGroups; ++g)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4 * g), acc[g]);
}

void lane_sums_avx2(const std::uint64_t* ip, std::int64_t words, int planes_pad,
                    const std::uint64_t* wplanes, int ucount, std::int64_t* lanes) {
  switch (planes_pad / 4) {
    case 1:
      return lane_sums_avx2_impl<1>(ip, words, wplanes, ucount, lanes);
    case 2:
      return lane_sums_avx2_impl<2>(ip, words, wplanes, ucount, lanes);
    case 3:
      return lane_sums_avx2_impl<3>(ip, words, wplanes, ucount, lanes);
    default:
      return lane_sums_avx2_impl<4>(ip, words, wplanes, ucount, lanes);
  }
}

/// AVX512-VPOPCNTDQ at 256-bit width: the nibble LUT collapses to one
/// vpopcntq per lane group.
template <int kGroups>
__attribute__((target("avx512vpopcntdq,avx512vl,avx512f,popcnt"))) void lane_sums_avx512_impl(
    const std::uint64_t* ip, std::int64_t words, const std::uint64_t* wplanes, int ucount,
    std::int64_t* lanes) {
  __m256i acc[kGroups];
  for (int g = 0; g < kGroups; ++g) acc[g] = _mm256_setzero_si256();
  for (int du = 0; du < ucount; ++du) {
    const std::uint64_t* wp = wplanes + static_cast<std::size_t>(du) * words;
    for (std::int64_t w = 0; w < words; ++w) {
      const __m256i wv = _mm256_set1_epi64x(static_cast<long long>(wp[w]));
      const std::uint64_t* iw = ip + w * (4 * kGroups);
      for (int g = 0; g < kGroups; ++g) {
        const __m256i x = _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(iw + 4 * g)), wv);
        acc[g] = _mm256_add_epi64(acc[g], _mm256_slli_epi64(_mm256_popcnt_epi64(x), du));
      }
    }
  }
  for (int g = 0; g < kGroups; ++g)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4 * g), acc[g]);
}

void lane_sums_avx512(const std::uint64_t* ip, std::int64_t words, int planes_pad,
                      const std::uint64_t* wplanes, int ucount, std::int64_t* lanes) {
  switch (planes_pad / 4) {
    case 1:
      return lane_sums_avx512_impl<1>(ip, words, wplanes, ucount, lanes);
    case 2:
      return lane_sums_avx512_impl<2>(ip, words, wplanes, ucount, lanes);
    case 3:
      return lane_sums_avx512_impl<3>(ip, words, wplanes, ucount, lanes);
    default:
      return lane_sums_avx512_impl<4>(ip, words, wplanes, ucount, lanes);
  }
}

#endif  // RED_MVM_X86

LaneSumsFn lane_sums_fn(MvmIsa isa) {
  switch (isa) {
#if RED_MVM_X86
    case MvmIsa::kPopcnt:
      return &lane_sums_popcnt;
    case MvmIsa::kAvx2:
      return &lane_sums_avx2;
    case MvmIsa::kAvx512:
      return &lane_sums_avx512;
#endif
    default:
      return &lane_sums_portable;
  }
}

/// Zero and fill the word-major packed input planes: bit r%64 of
/// in_planes[(r/64) * planes_pad + j] is bit j of input[r] & (2^abits - 1).
/// Uniform for every dac_bits — a multi-bit DAC digit is just a run of
/// consecutive bit-planes — and negative dac_bits==1 activations wrap to
/// their two's-complement abits pattern exactly like the scalar encode.
/// Inputs must already be range-checked (summarize_input). Only set bits are
/// scattered, so sparse inputs encode in O(set bits).
void encode_packed(std::span<const std::int32_t> input, const QuantConfig& q, int planes_pad,
                   std::uint64_t* ip) {
  const auto rows = static_cast<std::int64_t>(input.size());
  const std::int64_t words = (rows + 63) >> 6;
  std::fill(ip, ip + words * planes_pad, std::uint64_t{0});
  const std::uint64_t mask = (std::uint64_t{1} << q.abits) - 1;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::uint64_t u =
        static_cast<std::uint64_t>(
            static_cast<std::int64_t>(input[static_cast<std::size_t>(r)])) &
        mask;
    if (u == 0) continue;
    std::uint64_t* base = ip + (r >> 6) * planes_pad;
    const std::uint64_t row_bit = std::uint64_t{1} << (r & 63);
    do {
      base[std::countr_zero(u)] |= row_bit;
      u &= u - 1;
    } while (u != 0);
  }
}

/// Packed clipped-ADC kernel: per (column, slice) one lane_sums pass over the
/// slice's cell_bits weight planes yields lane[s][j] = the slice-s column
/// current contribution of input bit-plane j; the DAC digits of each pulse
/// then recombine scalar-side (cur = sum_e lane[s][b*dac+e] << e), saturate
/// at the ADC ceiling with clip counting, and accumulate exactly like the
/// reference. Returns the number of saturated conversions.
std::int64_t packed_clipped_kernel(const LogicalXbar& xbar, const EncodeSummary& sum,
                                   const std::uint64_t* ip, std::int64_t* out, LaneSumsFn fn) {
  const std::int64_t cols = xbar.cols();
  const std::int64_t words = xbar.packed_words();
  const QuantConfig& q = xbar.config();
  const int slices = q.slices();
  const int cell_bits = q.cell_bits;
  const int num_pulses = q.pulses();
  const int planes_pad = packed_planes_pad(q);
  const std::int64_t clip_max = (std::int64_t{1} << q.adc.bits) - 1;
  const std::int64_t correction = std::int64_t{q.weight_offset()} * sum.input_sum;
  std::int64_t lanes[kMaxSlices * kMaxPlanesPad];
  std::int64_t clips = 0;
  for (std::int64_t c = 0; c < cols; ++c) {
    const std::uint64_t* wcol = xbar.packed_col_planes(c);
    for (int s = 0; s < slices; ++s)
      fn(ip, words, planes_pad,
         wcol + static_cast<std::size_t>(s) * cell_bits * static_cast<std::size_t>(words),
         cell_bits, lanes + s * planes_pad);
    std::int64_t o = 0;
    for (int b = 0; b < num_pulses; ++b) {
      const std::int64_t pulse_weight = (q.dac_bits == 1 && b == q.abits - 1)
                                            ? -(std::int64_t{1} << b)
                                            : (std::int64_t{1} << (q.dac_bits * b));
      const int ebase = b * q.dac_bits;
      const int emax = std::min(q.dac_bits, q.abits - ebase);
      std::int64_t col_acc = 0;
      for (int s = 0; s < slices; ++s) {
        const std::int64_t* ls = lanes + s * planes_pad;
        std::int64_t cur = 0;
        for (int e = 0; e < emax; ++e) cur += ls[ebase + e] << e;
        if (cur > clip_max) {
          cur = clip_max;
          ++clips;
        }
        col_acc += cur << (cell_bits * s);
      }
      o += pulse_weight * col_acc;
    }
    out[c] = o - correction;
  }
  return clips;
}

// ---------------------------------------------------------------------------
// Runtime ISA selection.
// ---------------------------------------------------------------------------

MvmIsa detect_isa() {
#if RED_MVM_X86
  if (__builtin_cpu_supports("avx512vpopcntdq") && __builtin_cpu_supports("avx512vl"))
    return MvmIsa::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")) return MvmIsa::kAvx2;
  if (__builtin_cpu_supports("popcnt")) return MvmIsa::kPopcnt;
#endif
  return MvmIsa::kPortable;
}

MvmIsa isa_from_name(const std::string& name) {
  for (const MvmIsa isa : {MvmIsa::kScalar, MvmIsa::kPortable, MvmIsa::kPopcnt, MvmIsa::kAvx2,
                           MvmIsa::kAvx512})
    if (name == mvm_isa_name(isa)) return isa;
  throw ConfigError("RED_MVM_ISA: unknown tier '" + name +
                    "' (scalar | portable | popcnt | avx2 | avx512)");
}

MvmIsa clamp_isa(MvmIsa isa) { return std::min(isa, detect_isa()); }

MvmIsa initial_isa() {
  const char* env = std::getenv("RED_MVM_ISA");
  if (env == nullptr || *env == '\0') return detect_isa();
  return clamp_isa(isa_from_name(env));
}

std::atomic<int>& active_isa_slot() {
  static std::atomic<int> slot{static_cast<int>(initial_isa())};
  return slot;
}

// ---------------------------------------------------------------------------

/// Account one MVM call of input activity `sum` (and `clips` saturated
/// conversions) in `stats`, matching the reference's per-call bookkeeping.
void count_call(MvmStats* stats, const LogicalXbar& xbar, const EncodeSummary& sum,
                std::int64_t clips) {
  if (stats == nullptr) return;
  stats->mvm_ops += 1;
  stats->row_drives += sum.drives;
  stats->mac_pulses += sum.pulse_rows * xbar.phys_cols();
  stats->conversions += xbar.phys_cols() * xbar.config().pulses();
  stats->adc_clips += clips;
}

/// Whether an MVM call at `isa` bit-packs its input: only the clipped ADC's
/// popcount kernel reads packed planes.
bool packs_input(const LogicalXbar& xbar, MvmIsa isa, bool bit_accurate) {
  return bit_accurate && isa != MvmIsa::kScalar && xbar.config().adc.mode != AdcMode::kIdeal;
}

/// Ideal-ADC MVM of a whole range-checked input into `out` (cols() values).
void gemv_into(const LogicalXbar& xbar, std::span<const std::int32_t> input, std::int64_t* out,
               MvmIsa isa) {
  std::fill(out, out + xbar.cols(), std::int64_t{0});
  gemv_fn(isa)(input.data(), xbar.rows(), xbar.stored_weights().data(), xbar.cols(), out);
}

/// One bit-accurate MVM into `out` (cols() values). Assumes ws is prepared.
void bit_accurate_into(const LogicalXbar& xbar, std::span<const std::int32_t> input,
                       MvmWorkspace& ws, std::int64_t* out, MvmStats* stats, MvmIsa isa) {
  RED_EXPECTS_MSG(input.size() == static_cast<std::size_t>(xbar.rows()),
                  "input size mismatch");
  const QuantConfig& q = xbar.config();
  const EncodeSummary sum = summarize_input(input, q);

  std::int64_t clips = 0;
  if (isa == MvmIsa::kScalar) {
    if (q.adc.mode == AdcMode::kIdeal) {
      ideal_kernel(xbar, input, sum, ws, out);
    } else {
      encode_streams(input, q, ws.streams.data());
      clips = clipped_kernel(xbar, ws, sum.input_sum, out);
    }
  } else if (q.adc.mode == AdcMode::kIdeal) {
    gemv_into(xbar, input, out, isa);
  } else {
    encode_packed(input, q, packed_planes_pad(q), ws.in_planes.data());
    clips = packed_clipped_kernel(xbar, sum, ws.in_planes.data(), out, lane_sums_fn(isa));
  }
  count_call(stats, xbar, sum, clips);
}

/// One exact MVM (ideal-ADC semantics regardless of the configured ADC) into
/// `out`. The kScalar tier keeps its own row sweep
/// as the oracle; every other tier runs the GEMV of its tier.
void exact_into(const LogicalXbar& xbar, std::span<const std::int32_t> input, std::int64_t* out,
                MvmStats* stats, MvmIsa isa) {
  RED_EXPECTS_MSG(input.size() == static_cast<std::size_t>(xbar.rows()),
                  "input size mismatch");
  const std::int64_t rows = xbar.rows();
  const std::int64_t cols = xbar.cols();
  const QuantConfig& q = xbar.config();

  if (isa != MvmIsa::kScalar) {
    const EncodeSummary sum = summarize_input(input, q);
    gemv_into(xbar, input, out, isa);
    count_call(stats, xbar, sum, 0);
    return;
  }

  const std::int32_t* weights = xbar.stored_weights().data();
  std::fill(out, out + cols, std::int64_t{0});
  EncodeSummary sum;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t in = input[static_cast<std::size_t>(r)];
    if (in == 0) continue;
    ++sum.drives;
    sum.pulse_rows += fast_pulse_count(static_cast<std::int32_t>(in), q);
    const std::int32_t* wrow = weights + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) out[c] += in * wrow[c];
  }
  count_call(stats, xbar, sum, 0);
}

/// Observe-only instrumentation of the public dispatch entry points (never
/// the inner kernels): per-ISA-tier invocation counters plus MvmStats deltas
/// rolled into `mvm.*` counters. Static names keep the enabled path
/// allocation-free; the disabled path is the metrics() load + one branch.
const char* mvm_invocation_counter(MvmIsa isa) {
  switch (isa) {
    case MvmIsa::kScalar:
      return "mvm.calls.scalar";
    case MvmIsa::kPortable:
      return "mvm.calls.portable";
    case MvmIsa::kPopcnt:
      return "mvm.calls.popcnt";
    case MvmIsa::kAvx2:
      return "mvm.calls.avx2";
    case MvmIsa::kAvx512:
      return "mvm.calls.avx512";
  }
  return "mvm.calls.unknown";
}

void record_mvm_call(telemetry::MetricsRegistry* m, MvmIsa isa, std::int64_t calls,
                     const MvmStats* stats, const MvmStats& before) {
  m->counter(mvm_invocation_counter(isa))->add(static_cast<std::uint64_t>(calls));
  if (stats == nullptr) return;
  const auto bump = [m](const char* name, std::int64_t delta) {
    if (delta > 0) m->counter(name)->add(static_cast<std::uint64_t>(delta));
  };
  bump("mvm.ops", stats->mvm_ops - before.mvm_ops);
  bump("mvm.row_drives", stats->row_drives - before.row_drives);
  bump("mvm.mac_pulses", stats->mac_pulses - before.mac_pulses);
  bump("mvm.conversions", stats->conversions - before.conversions);
  bump("mvm.adc_clips", stats->adc_clips - before.adc_clips);
}

}  // namespace

MvmIsa mvm_detected_isa() { return detect_isa(); }

int packed_planes_pad(const QuantConfig& q) { return (q.abits + 3) & ~3; }

EncodeSummary summarize_input(std::span<const std::int32_t> input, const QuantConfig& q) {
  EncodeSummary s;
  for (auto v : input) {
    s.input_sum += v;
    if (v == 0) {
      // Still range-check: the reference encodes zero rows too.
      (void)fast_pulse_count(v, q);
      continue;
    }
    ++s.drives;
    s.pulse_rows += fast_pulse_count(v, q);
  }
  return s;
}

EncodeSummary encode_input(std::span<const std::int32_t> input, const QuantConfig& q,
                           std::uint64_t* planes) {
  const EncodeSummary sum = summarize_input(input, q);
  encode_packed(input, q, packed_planes_pad(q), planes);
  return sum;
}

void or_packed_at(std::uint64_t* dst, std::int64_t dst_words, const std::uint64_t* src,
                  std::int64_t src_words, int planes_pad, std::int64_t row0) {
  const std::int64_t w0 = row0 >> 6;
  const int shift = static_cast<int>(row0 & 63);
  // The source's last word holds its last row, so every source word lands
  // inside dst; only a shifted word's spill can point past dst's end, and
  // then it is empty (it would carry rows past the source's last row).
  RED_EXPECTS(row0 >= 0 && w0 + src_words <= dst_words);
  for (std::int64_t w = 0; w < src_words; ++w) {
    const std::uint64_t* s = src + w * planes_pad;
    std::uint64_t* lo = dst + (w0 + w) * planes_pad;
    for (int j = 0; j < planes_pad; ++j) lo[j] |= s[j] << shift;
    if (shift != 0 && w0 + w + 1 < dst_words)
      for (int j = 0; j < planes_pad; ++j) lo[planes_pad + j] |= s[j] >> (64 - shift);
  }
}

std::span<const std::int64_t> mvm_prepacked(const LogicalXbar& xbar,
                                            std::span<const std::uint64_t> planes,
                                            std::span<const EncodeSummary> sums,
                                            MvmWorkspace& ws, MvmStats* stats) {
  const QuantConfig& q = xbar.config();
  RED_EXPECTS_MSG(q.adc.mode != AdcMode::kIdeal, "pre-packed MVMs model a clipped ADC");
  const auto batch = static_cast<std::int64_t>(sums.size());
  const std::int64_t stride = xbar.packed_words() * packed_planes_pad(q);
  RED_EXPECTS_MSG(planes.size() == static_cast<std::size_t>(batch * stride),
                  "pre-packed planes size mismatch");
  const MvmIsa isa = std::max(mvm_active_isa(), MvmIsa::kPortable);
  auto* m = telemetry::metrics();
  const MvmStats before = (m != nullptr && stats != nullptr) ? *stats : MvmStats{};
  ws.prepare(xbar.rows(), xbar.cols(), q.pulses(), batch);
  const LaneSumsFn fn = lane_sums_fn(isa);
  for (std::int64_t v = 0; v < batch; ++v) {
    const EncodeSummary& sum = sums[static_cast<std::size_t>(v)];
    const std::int64_t clips = packed_clipped_kernel(xbar, sum, planes.data() + v * stride,
                                                     ws.out.data() + v * xbar.cols(), fn);
    count_call(stats, xbar, sum, clips);
  }
  if (m != nullptr && batch > 0) record_mvm_call(m, isa, batch, stats, before);
  return {ws.out.data(), static_cast<std::size_t>(batch * xbar.cols())};
}

BlockMvm::BlockMvm(const LogicalXbar& xbar, MvmStats* stats)
    : xbar_(xbar),
      stats_(stats),
      isa_(std::max(mvm_active_isa(), MvmIsa::kPortable)),
      fn_(gemv_fn(isa_)),
      before_(stats != nullptr ? *stats : MvmStats{}) {}

BlockMvm::~BlockMvm() {
  if (auto* m = telemetry::metrics(); m != nullptr && calls_ > 0)
    record_mvm_call(m, isa_, calls_, stats_, before_);
}

void BlockMvm::add(std::int64_t row0, std::span<const std::int32_t> in, std::int64_t* out) const {
  const auto rows = static_cast<std::int64_t>(in.size());
  RED_EXPECTS(row0 >= 0 && row0 + rows <= xbar_.rows());
  fn_(in.data(), rows, xbar_.stored_weights().data() + row0 * xbar_.cols(), xbar_.cols(), out);
}

void BlockMvm::end_call(const EncodeSummary& sum) {
  count_call(stats_, xbar_, sum, 0);
  ++calls_;
}

MvmIsa mvm_active_isa() { return static_cast<MvmIsa>(active_isa_slot().load(std::memory_order_relaxed)); }

MvmIsa set_mvm_isa(MvmIsa isa) {
  const MvmIsa installed = clamp_isa(isa);
  active_isa_slot().store(static_cast<int>(installed), std::memory_order_relaxed);
  return installed;
}

const char* mvm_isa_name(MvmIsa isa) {
  switch (isa) {
    case MvmIsa::kScalar:
      return "scalar";
    case MvmIsa::kPortable:
      return "portable";
    case MvmIsa::kPopcnt:
      return "popcnt";
    case MvmIsa::kAvx2:
      return "avx2";
    case MvmIsa::kAvx512:
      return "avx512";
  }
  RED_EXPECTS_MSG(false, "unhandled MvmIsa");
  return "";
}

std::span<const std::int64_t> mvm_bit_accurate(const LogicalXbar& xbar,
                                               std::span<const std::int32_t> input,
                                               MvmWorkspace& ws, MvmStats* stats) {
  const MvmIsa isa = mvm_active_isa();
  auto* m = telemetry::metrics();
  const MvmStats before = (m != nullptr && stats != nullptr) ? *stats : MvmStats{};
  ws.prepare(xbar.rows(), xbar.cols(), xbar.config().pulses());
  if (packs_input(xbar, isa, true)) ws.prepare_packed(xbar.rows(), packed_planes_pad(xbar.config()));
  bit_accurate_into(xbar, input, ws, ws.out.data(), stats, isa);
  if (m != nullptr) record_mvm_call(m, isa, 1, stats, before);
  return {ws.out.data(), static_cast<std::size_t>(xbar.cols())};
}

std::span<const std::int64_t> mvm_exact(const LogicalXbar& xbar,
                                        std::span<const std::int32_t> input, MvmWorkspace& ws,
                                        MvmStats* stats) {
  const MvmIsa isa = mvm_active_isa();
  auto* m = telemetry::metrics();
  const MvmStats before = (m != nullptr && stats != nullptr) ? *stats : MvmStats{};
  ws.prepare(xbar.rows(), xbar.cols(), xbar.config().pulses());
  exact_into(xbar, input, ws.out.data(), stats, isa);
  if (m != nullptr) record_mvm_call(m, isa, 1, stats, before);
  return {ws.out.data(), static_cast<std::size_t>(xbar.cols())};
}

std::span<const std::int64_t> mvm_batch(const LogicalXbar& xbar,
                                        std::span<const std::int32_t> inputs, std::int64_t batch,
                                        bool bit_accurate, MvmWorkspace& ws, MvmStats* stats) {
  RED_EXPECTS(batch >= 0);
  RED_EXPECTS_MSG(inputs.size() == static_cast<std::size_t>(batch * xbar.rows()),
                  "batch input size mismatch");
  const MvmIsa isa = mvm_active_isa();
  auto* m = telemetry::metrics();
  const MvmStats before = (m != nullptr && stats != nullptr) ? *stats : MvmStats{};
  ws.prepare(xbar.rows(), xbar.cols(), xbar.config().pulses(), batch);
  if (packs_input(xbar, isa, bit_accurate)) ws.prepare_packed(xbar.rows(), packed_planes_pad(xbar.config()));
  const auto rows = static_cast<std::size_t>(xbar.rows());
  for (std::int64_t v = 0; v < batch; ++v) {
    const auto input = inputs.subspan(static_cast<std::size_t>(v) * rows, rows);
    std::int64_t* out = ws.out.data() + v * xbar.cols();
    if (bit_accurate)
      bit_accurate_into(xbar, input, ws, out, stats, isa);
    else
      exact_into(xbar, input, out, stats, isa);
  }
  if (m != nullptr && batch > 0) record_mvm_call(m, isa, batch, stats, before);
  return {ws.out.data(), static_cast<std::size_t>(batch * xbar.cols())};
}

}  // namespace red::perf
