#include "red/xbar/crossbar.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <random>

#include "red/common/contracts.h"
#include "red/common/math_util.h"
#include "red/perf/mvm_kernel.h"
#include "red/xbar/codec.h"

namespace red::xbar {

namespace {

// Per-thread scratch for the signature-compatible entry points, so legacy
// call sites get the allocation-free kernels without plumbing a workspace.
perf::MvmWorkspace& thread_workspace() {
  thread_local perf::MvmWorkspace ws;
  return ws;
}

// SplitMix64: tiny counter-style generator for the accelerated delta
// sampler. One multiply-xorshift step per draw — roughly an order of
// magnitude cheaper than a std::normal_distribution variate on mt19937_64,
// which is what makes sparse Monte Carlo reprogramming fast.
struct SplitMix64 {
  std::uint64_t state;
  explicit SplitMix64(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// Exact discrete law of the programming-noise perturbation: for a clean
// level l, the stored result is clamp(lround(l + N(0, sigma)), 0, m), i.e. a
// categorical distribution over levels with Gaussian-quantized bucket
// probabilities. Tabulated once per reprogram call so the sampler only draws
// uniforms. (Half-integer rounding boundaries are measure-zero, so lround's
// away-from-zero tie rule does not affect the law.)
struct NoiseLaw {
  // prob[l][k] = P(result == k | clean level l); change[l] = 1 - prob[l][l].
  std::array<std::array<double, 16>, 16> prob{};
  std::array<double, 16> change{};

  NoiseLaw(double sigma, int max_level) {
    for (int l = 0; l <= max_level; ++l) {
      double sum = 0.0;
      for (int k = 0; k < max_level; ++k) {
        const double hi = normal_cdf((static_cast<double>(k - l) + 0.5) / sigma);
        prob[static_cast<std::size_t>(l)][static_cast<std::size_t>(k)] = hi - sum;
        sum = hi;
      }
      prob[static_cast<std::size_t>(l)][static_cast<std::size_t>(max_level)] = 1.0 - sum;
      change[static_cast<std::size_t>(l)] =
          1.0 - prob[static_cast<std::size_t>(l)][static_cast<std::size_t>(l)];
    }
  }

  /// Sample the perturbed level given a change occurred: v uniform in
  /// [0, change[l]) walks the conditional CDF over k != l.
  [[nodiscard]] std::uint8_t sample_changed(int l, double v, int max_level) const {
    for (int k = 0; k < max_level; ++k) {
      if (k == l) continue;
      v -= prob[static_cast<std::size_t>(l)][static_cast<std::size_t>(k)];
      if (v < 0.0) return static_cast<std::uint8_t>(k);
    }
    return static_cast<std::uint8_t>(max_level == l ? max_level - 1 : max_level);
  }
};

// Applies a VariationModel to cell levels with one RNG stream walked in cell
// order. Shared by the programming constructor and the reprogram-with-
// variation constructor so both consume the stream identically — the
// perturbed-copy path is bit-exact vs programming from scratch.
class VariationSampler {
 public:
  VariationSampler(const VariationModel& var, int max_level, VariationStats* stats)
      : var_(var), max_level_(max_level), stats_(stats), engine_(var.seed),
        // std::normal_distribution requires stddev > 0. With level_sigma == 0
        // noise_ is never drawn (apply() checks level_sigma first), so any
        // positive stand-in leaves results unchanged.
        noise_(0.0, var.level_sigma > 0.0 ? var.level_sigma : 1.0) {}

  /// Perturb `n` levels in place, counting stuck/perturbed cells. One
  /// uniform decides both stuck polarities: u < sa0 forces level 0,
  /// sa0 <= u < sa0 + sa1 forces max_level (the legacy stuck_at_rate alias
  /// is folded into sa0()/sa1() at equal halves).
  void apply(std::uint8_t* levels, std::size_t n) {
    const double sa0 = var_.sa0();
    const double stuck = var_.stuck_total();
    for (std::size_t k = 0; k < n; ++k) {
      std::uint8_t& level = levels[k];
      const std::uint8_t original = level;
      bool forced = false;
      if (stuck > 0.0) {
        const double u = unit_(engine_);
        if (u < stuck) {
          forced = true;
          const bool at0 = u < sa0;
          level = at0 ? 0 : static_cast<std::uint8_t>(max_level_);
          ++stats_->stuck_cells;
          ++(at0 ? stats_->sa0_cells : stats_->sa1_cells);
        }
      }
      if (!forced && var_.level_sigma > 0.0) {
        const double perturbed = static_cast<double>(level) + noise_(engine_);
        level = static_cast<std::uint8_t>(
            std::clamp<long>(std::lround(perturbed), 0L, static_cast<long>(max_level_)));
      }
      if (level != original) ++stats_->perturbed_cells;
    }
  }

 private:
  const VariationModel& var_;
  int max_level_;
  VariationStats* stats_;
  std::mt19937_64 engine_;
  std::normal_distribution<double> noise_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace

MvmStats& MvmStats::operator+=(const MvmStats& o) {
  mvm_ops += o.mvm_ops;
  row_drives += o.row_drives;
  mac_pulses += o.mac_pulses;
  conversions += o.conversions;
  adc_clips += o.adc_clips;
  return *this;
}

LogicalXbar::LogicalXbar(std::int64_t rows, std::int64_t cols,
                         std::span<const std::int32_t> weights, QuantConfig config)
    : rows_(rows), cols_(cols), config_(config) {
  config_.validate();
  RED_EXPECTS(rows >= 1 && cols >= 1);
  RED_EXPECTS_MSG(weights.size() == static_cast<std::size_t>(rows * cols),
                  "weights must be rows*cols");
  const int slices = config_.slices();
  const std::size_t plane = weights.size();
  weights_.resize(plane);
  levels_.resize(plane * static_cast<std::size_t>(slices));

  // Device non-idealities are applied at program time, per stored level, so
  // both MVM paths see the same (perturbed) weights.
  const auto& var = config_.variation;
  VariationSampler sampler(var, config_.max_level(), &variation_stats_);
  variation_stats_.cells = static_cast<std::int64_t>(plane) * slices;

  // Running per-(col, slice) column sums of the programmed levels feed the
  // lossless-ADC-bits cache below (previously an O(rows*cols*slices)
  // recompute on every lossless_adc_bits() call); kept as a member so delta
  // reprogramming can update the cache incrementally.
  col_level_sums_.assign(static_cast<std::size_t>(cols) * slices, 0);

  for (std::size_t i = 0; i < plane; ++i) {
    auto lv = encode_weight(weights[i], config_);
    if (var.enabled()) sampler.apply(lv.data(), lv.size());
    const std::size_t c = i % static_cast<std::size_t>(cols);
    for (int s = 0; s < slices; ++s) {
      levels_[static_cast<std::size_t>(s) * plane + i] = lv[static_cast<std::size_t>(s)];
      col_level_sums_[c * static_cast<std::size_t>(slices) + static_cast<std::size_t>(s)] +=
          lv[static_cast<std::size_t>(s)];
    }
    weights_[i] = decode_weight(lv, config_);
    // Without non-idealities the offset encoding is lossless in-range.
    if (!var.enabled()) RED_ENSURES(weights_[i] == weights[i]);
  }

  const std::int64_t worst = *std::max_element(col_level_sums_.begin(), col_level_sums_.end());
  lossless_adc_bits_ = worst == 0 ? 1 : ilog2_ceil(worst + 1);
  rebuild_packed_planes();
}

LogicalXbar::LogicalXbar(const LogicalXbar& clean, const VariationModel& var, FastDeltaTag)
    : rows_(clean.rows_),
      cols_(clean.cols_),
      config_(clean.config_),
      weights_(clean.weights_),
      levels_(clean.levels_),
      packed_planes_(clean.packed_planes_),
      packed_words_(clean.packed_words_),
      col_level_sums_(clean.col_level_sums_),
      lossless_adc_bits_(clean.lossless_adc_bits_) {
  RED_EXPECTS_MSG(!clean.config_.variation.enabled(),
                  "perturbed copies must derive from a variation-free crossbar");
  var.validate();
  config_.variation = var;
  const int slices = config_.slices();
  const std::size_t plane = weights_.size();
  variation_stats_.cells = static_cast<std::int64_t>(plane) * slices;
  if (!var.enabled()) return;

  const int max_level = config_.max_level();
  const NoiseLaw law(var.level_sigma > 0.0 ? var.level_sigma : 1.0, max_level);
  SplitMix64 rng(var.seed);
  bool dirty = false;

  // Sparse deltas over the copied clean state: only actual changes touch the
  // stored weight (decode is linear, so the weight delta is just the level
  // delta shifted into its slice position) and the column level sums.
  // levels_ is one contiguous [slice][row][col] array, so `idx` walks all
  // cells flat; (idx / plane) recovers the slice, (idx % plane) the cell.
  const auto apply_change = [&](std::size_t idx, std::uint8_t level) {
    const std::uint8_t original = levels_[idx];
    const std::size_t s = idx / plane;
    const std::size_t i = idx % plane;
    ++variation_stats_.perturbed_cells;
    levels_[idx] = level;
    weights_[i] += (static_cast<std::int32_t>(level) - static_cast<std::int32_t>(original))
                   << (config_.cell_bits * static_cast<int>(s));
    col_level_sums_[(i % static_cast<std::size_t>(cols_)) * static_cast<std::size_t>(slices) +
                    s] += static_cast<std::int64_t>(level) - static_cast<std::int64_t>(original);
    dirty = true;
    // Patch the copied packed bit-planes (clipped ADCs only) in place: one
    // bit per level bit of this cell, at row bit (r % 64) of word (r / 64) in
    // plane s*cell_bits+t.
    if (packed_planes_.empty()) return;
    const std::int64_t r = static_cast<std::int64_t>(i) / cols_;
    const std::int64_t c = static_cast<std::int64_t>(i) % cols_;
    const std::uint64_t row_bit = std::uint64_t{1} << (r & 63);
    const std::size_t col_base = static_cast<std::size_t>(c) *
                                 static_cast<std::size_t>(packed_weight_planes()) *
                                 static_cast<std::size_t>(packed_words_);
    for (int t = 0; t < config_.cell_bits; ++t) {
      const std::size_t u = s * static_cast<std::size_t>(config_.cell_bits) +
                            static_cast<std::size_t>(t);
      std::uint64_t& word =
          packed_planes_[col_base + u * static_cast<std::size_t>(packed_words_) +
                         static_cast<std::size_t>(r >> 6)];
      if ((level >> t) & 1)
        word |= row_bit;
      else
        word &= ~row_bit;
    }
  };

  double p_star = 0.0;  // upper bound on any cell's change probability
  for (int l = 0; l <= max_level; ++l)
    p_star = std::max(p_star, law.change[static_cast<std::size_t>(l)]);
  const std::size_t total = plane * static_cast<std::size_t>(slices);

  const double sa0 = var.sa0();
  const double stuck = var.stuck_total();
  if (stuck == 0.0 && p_star < 0.25) {
    // Noise-only, low change probability: geometric skip-sampling. Candidate
    // cells fire as a Bernoulli(p_star) process walked by geometric gaps and
    // are accepted with probability change[level] / p_star — exact rejection
    // sampling of the same per-cell law, in O(changed cells) draws instead
    // of O(cells). (Stuck-at needs the per-cell walk: a stuck event counts
    // in the stats even when it lands on the unchanged level.)
    if (p_star > 0.0) {
      const double log1m = std::log1p(-p_star);
      std::size_t idx = 0;
      while (idx < total) {
        const double gap = std::floor(std::log1p(-rng.uniform()) / log1m);
        if (gap >= static_cast<double>(total - idx)) break;
        idx += static_cast<std::size_t>(gap);
        const std::uint8_t original = levels_[idx];
        const double change = law.change[original];
        if (rng.uniform() * p_star < change)
          apply_change(idx, law.sample_changed(original, rng.uniform() * change, max_level));
        ++idx;
      }
    }
  } else {
    for (std::size_t idx = 0; idx < total; ++idx) {
      const std::uint8_t original = levels_[idx];
      std::uint8_t level = original;
      bool forced = false;
      if (stuck > 0.0) {
        const double su = rng.uniform();
        if (su < stuck) {
          forced = true;
          const bool at0 = su < sa0;
          level = at0 ? 0 : static_cast<std::uint8_t>(max_level);
          ++variation_stats_.stuck_cells;
          ++(at0 ? variation_stats_.sa0_cells : variation_stats_.sa1_cells);
        }
      }
      if (!forced && var.level_sigma > 0.0) {
        const double u = rng.uniform();
        if (u < law.change[original]) {
          level = law.sample_changed(original, rng.uniform() * law.change[original], max_level);
        }
      }
      if (level != original) apply_change(idx, level);
    }
  }
  if (dirty) {
    const std::int64_t worst =
        *std::max_element(col_level_sums_.begin(), col_level_sums_.end());
    lossless_adc_bits_ = worst == 0 ? 1 : ilog2_ceil(worst + 1);
  }
}

LogicalXbar::LogicalXbar(const LogicalXbar& clean, std::vector<std::uint8_t> levels,
                         VariationStats stats)
    : rows_(clean.rows_),
      cols_(clean.cols_),
      config_(clean.config_),
      levels_(std::move(levels)),
      variation_stats_(stats) {
  RED_EXPECTS_MSG(levels_.size() == clean.levels_.size(),
                  "transformed level array must match the clean geometry");
  const int slices = config_.slices();
  const std::size_t plane = clean.weights_.size();
  weights_.resize(plane);
  col_level_sums_.assign(static_cast<std::size_t>(cols_) * slices, 0);
  for (std::size_t i = 0; i < plane; ++i) {
    std::int64_t u = 0;
    for (int s = slices; s-- > 0;)
      u = (u << config_.cell_bits) | levels_[static_cast<std::size_t>(s) * plane + i];
    weights_[i] = static_cast<std::int32_t>(u - config_.weight_offset());
    const std::size_t c = i % static_cast<std::size_t>(cols_);
    for (int s = 0; s < slices; ++s)
      col_level_sums_[c * static_cast<std::size_t>(slices) + static_cast<std::size_t>(s)] +=
          levels_[static_cast<std::size_t>(s) * plane + i];
  }
  const std::int64_t worst = *std::max_element(col_level_sums_.begin(), col_level_sums_.end());
  lossless_adc_bits_ = worst == 0 ? 1 : ilog2_ceil(worst + 1);
  rebuild_packed_planes();
}

void LogicalXbar::rebuild_packed_planes() {
  const int cell_bits = config_.cell_bits;
  const int num_planes = packed_weight_planes();
  packed_words_ = (rows_ + 63) >> 6;
  // Only the clipped-ADC popcount kernel reads the planes.
  if (config_.adc.mode == AdcMode::kIdeal) {
    packed_planes_.clear();
    return;
  }
  packed_planes_.assign(static_cast<std::size_t>(cols_) * static_cast<std::size_t>(num_planes) *
                            static_cast<std::size_t>(packed_words_),
                        0);
  const std::size_t plane = static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  for (int s = 0; s < config_.slices(); ++s) {
    const std::uint8_t* lp = levels_.data() + static_cast<std::size_t>(s) * plane;
    for (std::int64_t r = 0; r < rows_; ++r) {
      const std::uint64_t row_bit = std::uint64_t{1} << (r & 63);
      const std::size_t word = static_cast<std::size_t>(r >> 6);
      for (std::int64_t c = 0; c < cols_; ++c) {
        std::uint8_t lv = lp[static_cast<std::size_t>(r * cols_ + c)];
        const std::size_t col_base = static_cast<std::size_t>(c) *
                                     static_cast<std::size_t>(num_planes) *
                                     static_cast<std::size_t>(packed_words_);
        for (int t = 0; lv != 0; ++t, lv >>= 1)
          if (lv & 1)
            packed_planes_[col_base +
                           static_cast<std::size_t>(s * cell_bits + t) *
                               static_cast<std::size_t>(packed_words_) +
                           word] |= row_bit;
      }
    }
  }
}

std::int32_t LogicalXbar::stored_weight(std::int64_t r, std::int64_t c) const {
  RED_EXPECTS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return weights_[static_cast<std::size_t>(r * cols_ + c)];
}

std::vector<std::int64_t> LogicalXbar::mvm(std::span<const std::int32_t> input,
                                           MvmStats* stats) const {
  const auto out = perf::mvm_exact(*this, input, thread_workspace(), stats);
  return {out.begin(), out.end()};
}

std::span<const std::int64_t> LogicalXbar::mvm(std::span<const std::int32_t> input,
                                               perf::MvmWorkspace& ws, MvmStats* stats) const {
  return perf::mvm_exact(*this, input, ws, stats);
}

std::vector<std::int64_t> LogicalXbar::mvm_bit_accurate(std::span<const std::int32_t> input,
                                                        MvmStats* stats) const {
  const auto out = perf::mvm_bit_accurate(*this, input, thread_workspace(), stats);
  return {out.begin(), out.end()};
}

std::span<const std::int64_t> LogicalXbar::mvm_bit_accurate(std::span<const std::int32_t> input,
                                                            perf::MvmWorkspace& ws,
                                                            MvmStats* stats) const {
  return perf::mvm_bit_accurate(*this, input, ws, stats);
}

std::span<const std::int64_t> LogicalXbar::mvm_batch(std::span<const std::int32_t> inputs,
                                                     std::int64_t batch, bool bit_accurate,
                                                     perf::MvmWorkspace& ws,
                                                     MvmStats* stats) const {
  return perf::mvm_batch(*this, inputs, batch, bit_accurate, ws, stats);
}

std::vector<std::int64_t> LogicalXbar::mvm_bit_accurate_reference(
    std::span<const std::int32_t> input, MvmStats* stats) const {
  RED_EXPECTS_MSG(input.size() == static_cast<std::size_t>(rows_), "input size mismatch");
  const int slices = config_.slices();
  const int num_pulses = config_.pulses();
  const std::int64_t clip_max = config_.adc.mode == AdcMode::kClipped
                                    ? (std::int64_t{1} << config_.adc.bits) - 1
                                    : std::numeric_limits<std::int64_t>::max();

  // Pre-compute per-row pulse streams (bit planes, or DAC digits when
  // dac_bits > 1) and the exact digital input sum (offset column).
  std::vector<std::vector<std::uint8_t>> streams;
  streams.reserve(input.size());
  std::int64_t input_sum = 0;
  std::int64_t drives = 0;
  std::int64_t pulses = 0;
  for (auto v : input) {
    streams.push_back(config_.dac_bits == 1 ? input_bit_planes(v, config_)
                                            : input_digits(v, config_));
    input_sum += v;
    if (v != 0) {
      ++drives;
      pulses += std::int64_t{pulse_count(v, config_)} * phys_cols();
    }
  }

  std::vector<std::int64_t> out(static_cast<std::size_t>(cols_), 0);
  std::int64_t clips = 0;
  for (int b = 0; b < num_pulses; ++b) {
    // Bit-serial: the MSB plane carries the two's-complement negative weight.
    // Multi-bit DAC: digits are unsigned (non-negative activations only).
    const std::int64_t pulse_weight =
        (config_.dac_bits == 1 && b == config_.abits - 1)
            ? -(std::int64_t{1} << b)
            : (std::int64_t{1} << (config_.dac_bits * b));
    for (std::int64_t c = 0; c < cols_; ++c) {
      std::int64_t col_acc = 0;  // recombined across slices
      for (int s = 0; s < slices; ++s) {
        std::int64_t current = 0;  // integrate the column current for pulse b
        for (std::int64_t r = 0; r < rows_; ++r) {
          const auto drive = streams[static_cast<std::size_t>(r)][static_cast<std::size_t>(b)];
          if (drive == 0) continue;
          current += std::int64_t{drive} * level(r, c, s);
        }
        if (current > clip_max) {
          current = clip_max;
          ++clips;
        }
        col_acc += current << (config_.cell_bits * s);
      }
      out[static_cast<std::size_t>(c)] += pulse_weight * col_acc;
    }
  }
  // Offset-encoding correction: subtract offset * (exact digital input sum).
  for (auto& v : out) v -= std::int64_t{config_.weight_offset()} * input_sum;

  if (stats != nullptr) {
    stats->mvm_ops += 1;
    stats->row_drives += drives;
    stats->mac_pulses += pulses;
    stats->conversions += phys_cols() * num_pulses;
    stats->adc_clips += clips;
  }
  return out;
}

}  // namespace red::xbar
