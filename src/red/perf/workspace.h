// Reusable scratch buffers for the fast MVM kernels.
//
// Every buffer the bit-serial kernel needs per call — the encoded pulse
// streams, the per-column current/accumulator tiles, and the output block —
// lives here, so a warmed-up workspace makes an MVM call allocation-free.
// Workspaces are plain value types: one per thread (the kernels never share
// one across threads), reusable across crossbars of any geometry because
// prepare() only ever grows the buffers.
#pragma once

#include <cstdint>
#include <vector>

namespace red::perf {

struct MvmWorkspace {
  /// Pulse-plane-major encoded input streams: streams[b * rows + r] is the
  /// digit row r drives during pulse b. Written by the kernel's encode pass
  /// (scalar clipped kernel only; the packed kernels use in_planes).
  std::vector<std::uint8_t> streams;
  /// Packed input bit-planes for the clipped-ADC popcount kernel, word-major
  /// so one weight word broadcasts against all planes:
  /// in_planes[w * planes_pad + j] is word w (rows 64w..64w+63) of input
  /// bit-plane j, with planes_pad the plane count rounded up to a multiple of
  /// 4 (one 256-bit lane group); the pad planes stay zero.
  std::vector<std::uint64_t> in_planes;
  /// Per-pulse compacted list of driven wordlines (row index, digit value);
  /// built once per pulse and reused across the weight slices.
  std::vector<std::int32_t> driven_rows;
  std::vector<std::uint8_t> driven_vals;
  /// Per-column integrated current of one (pulse, slice) plane.
  std::vector<std::int64_t> current;
  /// Per-column slice-recombined accumulator of one pulse.
  std::vector<std::int64_t> acc;
  /// Kernel output block: batch * cols results, vector-major.
  std::vector<std::int64_t> out;
  /// Scratch canvas for deconv scatter loops; reused for as long as the
  /// owning workspace lives (contents are transient per layer).
  std::vector<std::int32_t> canvas;

  /// Grow (never shrink) the MVM buffers for a rows x cols crossbar streaming
  /// `pulses` pulses over a batch of `batch` input vectors.
  void prepare(std::int64_t rows, std::int64_t cols, int pulses, std::int64_t batch = 1) {
    const auto need_streams = static_cast<std::size_t>(rows) * static_cast<std::size_t>(pulses);
    if (streams.size() < need_streams) streams.resize(need_streams);
    const auto need_rows = static_cast<std::size_t>(rows);
    if (driven_rows.size() < need_rows) driven_rows.resize(need_rows);
    if (driven_vals.size() < need_rows) driven_vals.resize(need_rows);
    const auto need_cols = static_cast<std::size_t>(cols);
    if (current.size() < need_cols) current.resize(need_cols);
    if (acc.size() < need_cols) acc.resize(need_cols);
    const auto need_out = static_cast<std::size_t>(batch) * need_cols;
    if (out.size() < need_out) out.resize(need_out);
  }

  /// Grow (never shrink) the packed input-plane buffer for a rows-wordline
  /// crossbar streaming `planes_pad` (already padded) input bit-planes. Like
  /// prepare(), sizing is per shape, not per call: a warmed-up workspace
  /// re-encodes in place with no heap traffic across mvm_batch calls.
  void prepare_packed(std::int64_t rows, int planes_pad) {
    const auto need = static_cast<std::size_t>((rows + 63) / 64) *
                      static_cast<std::size_t>(planes_pad);
    if (in_planes.size() < need) in_planes.resize(need);
  }
};

}  // namespace red::perf
