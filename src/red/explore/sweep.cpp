#include "red/explore/sweep.h"

#include <cstring>

#include "red/circuits/breakdown.h"
#include "red/common/contracts.h"
#include "red/common/error.h"
#include "red/perf/thread_pool.h"
#include "red/plan/plan.h"
#include "red/telemetry/metrics.h"
#include "red/telemetry/tracer.h"

namespace red::explore {

namespace {

// ---- outcome codec ---------------------------------------------------------
// Fixed field order, host-endian raw bytes (the store is a same-machine
// cache). A version tag guards the schema: a payload written by an older
// layout decodes to ConfigError and is simply recomputed.

constexpr std::uint32_t kOutcomeSchema = 1;

template <typename T>
void put_raw(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void put_string(std::string& out, const std::string& s) {
  put_raw(out, static_cast<std::uint64_t>(s.size()));
  out += s;
}

struct Cursor {
  const std::string& bytes;
  std::size_t pos = 0;

  template <typename T>
  T take() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos + sizeof(T) > bytes.size())
      throw ConfigError("sweep outcome payload: truncated");
    T value;
    std::memcpy(&value, bytes.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  std::string take_string() {
    const auto n = take<std::uint64_t>();
    if (pos + n > bytes.size()) throw ConfigError("sweep outcome payload: truncated string");
    std::string s = bytes.substr(pos, n);
    pos += n;
    return s;
  }
};

}  // namespace

std::string encode_outcome(const SweepOutcome& outcome) {
  const arch::LayerActivity& a = outcome.activity;
  std::string out;
  put_raw(out, kOutcomeSchema);
  // Activity: structure, then dynamic totals, in declaration order.
  put_string(out, a.design_name);
  put_raw(out, static_cast<std::uint64_t>(a.macros.size()));
  for (const auto& m : a.macros) {
    put_raw(out, m.rows);
    put_raw(out, m.phys_cols);
    put_raw(out, m.count);
  }
  put_raw(out, a.total_rows);
  put_raw(out, a.out_phys_cols);
  put_raw(out, a.cells);
  put_raw(out, a.dec_units);
  put_raw(out, a.dec_rows);
  put_raw(out, static_cast<std::uint8_t>(a.sub_crossbar_decoders));
  put_raw(out, a.sc_units);
  put_raw(out, a.groups);
  put_raw(out, a.wl_load_cols);
  put_raw(out, a.bl_load_rows);
  put_raw(out, a.bl_weighted_cols);
  put_raw(out, static_cast<std::uint8_t>(a.split_macro));
  put_raw(out, a.sa_extra_stages);
  put_raw(out, a.fold);
  put_raw(out, a.cycles);
  put_raw(out, a.row_drives);
  put_raw(out, a.conversions);
  put_raw(out, a.mux_switches);
  put_raw(out, a.sa_ops);
  put_raw(out, a.mac_pulses);
  put_raw(out, a.patch_positions);
  put_raw(out, a.overlap_adds);
  put_raw(out, a.buffer_accesses);
  put_raw(out, static_cast<std::uint8_t>(a.has_crop));
  // Cost report: design, cycles, per-component latency/energy/area, leakage.
  put_string(out, outcome.cost.design());
  put_raw(out, outcome.cost.cycles());
  for (const auto c : circuits::all_components()) put_raw(out, outcome.cost.latency(c).value());
  for (const auto c : circuits::all_components()) put_raw(out, outcome.cost.energy(c).value());
  for (const auto c : circuits::all_components()) put_raw(out, outcome.cost.area(c).value());
  put_raw(out, outcome.cost.leakage().value());
  return out;
}

SweepOutcome decode_outcome(const std::string& payload) {
  Cursor in{payload};
  if (in.take<std::uint32_t>() != kOutcomeSchema)
    throw ConfigError("sweep outcome payload: unknown schema version");
  SweepOutcome out;
  arch::LayerActivity& a = out.activity;
  a.design_name = in.take_string();
  const auto macros = in.take<std::uint64_t>();
  if (macros > (1u << 20)) throw ConfigError("sweep outcome payload: implausible macro count");
  a.macros.resize(macros);
  for (auto& m : a.macros) {
    m.rows = in.take<std::int64_t>();
    m.phys_cols = in.take<std::int64_t>();
    m.count = in.take<std::int64_t>();
  }
  a.total_rows = in.take<std::int64_t>();
  a.out_phys_cols = in.take<std::int64_t>();
  a.cells = in.take<std::int64_t>();
  a.dec_units = in.take<std::int64_t>();
  a.dec_rows = in.take<std::int64_t>();
  a.sub_crossbar_decoders = in.take<std::uint8_t>() != 0;
  a.sc_units = in.take<std::int64_t>();
  a.groups = in.take<std::int64_t>();
  a.wl_load_cols = in.take<std::int64_t>();
  a.bl_load_rows = in.take<std::int64_t>();
  a.bl_weighted_cols = in.take<std::int64_t>();
  a.split_macro = in.take<std::uint8_t>() != 0;
  a.sa_extra_stages = in.take<int>();
  a.fold = in.take<int>();
  a.cycles = in.take<std::int64_t>();
  a.row_drives = in.take<std::int64_t>();
  a.conversions = in.take<std::int64_t>();
  a.mux_switches = in.take<std::int64_t>();
  a.sa_ops = in.take<std::int64_t>();
  a.mac_pulses = in.take<double>();
  a.patch_positions = in.take<std::int64_t>();
  a.overlap_adds = in.take<std::int64_t>();
  a.buffer_accesses = in.take<std::int64_t>();
  a.has_crop = in.take<std::uint8_t>() != 0;
  out.cost.set_design(in.take_string());
  out.cost.set_cycles(in.take<std::int64_t>());
  for (const auto c : circuits::all_components())
    out.cost.add_latency(c, Nanoseconds{in.take<double>()});
  for (const auto c : circuits::all_components())
    out.cost.add_energy(c, Picojoules{in.take<double>()});
  for (const auto c : circuits::all_components())
    out.cost.add_area(c, SquareMicrons{in.take<double>()});
  out.cost.set_leakage(Picojoules{in.take<double>()});
  if (in.pos != payload.size())
    throw ConfigError("sweep outcome payload: trailing bytes");
  return out;
}

SweepDriver::SweepDriver(int threads, std::int64_t max_cache_entries)
    : threads_(threads), max_cache_entries_(max_cache_entries) {
  RED_EXPECTS(threads >= 1);
  RED_EXPECTS(max_cache_entries >= 0);
}

void SweepDriver::clear() {
  cache_.clear();
  insertion_order_.clear();
  stats_.cached_entries = 0;
}

std::vector<SweepOutcome> SweepDriver::evaluate(const std::vector<SweepPoint>& grid) {
  // Observe-only: the span and the counter deltas at the end mirror stats_
  // without ever influencing which points are computed or served.
  telemetry::ScopedSpan span("sweep.evaluate", "explore");
  const SweepStats before = stats_;
  stats_.points += static_cast<std::int64_t>(grid.size());

  // Deduplicate against the memo and within the grid; only the first
  // occurrence of a new fingerprint is evaluated.
  std::vector<std::string> keys;
  keys.reserve(grid.size());
  std::vector<std::size_t> fresh;  // grid indices to evaluate
  std::unordered_map<std::string, std::size_t> pending;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    keys.push_back(plan::structural_key(grid[i].kind, grid[i].cfg, grid[i].spec));
    if (cache_.contains(keys.back()) || pending.contains(keys.back())) continue;
    pending.emplace(keys.back(), fresh.size());
    fresh.push_back(i);
  }

  // Persistent store, if attached: a point the memo has not seen may have
  // been priced by an earlier process (or a parallel shard). A payload that
  // fails to decode — truncated, stale schema — counts as a miss and is
  // recomputed; the CRC layer below already quarantined flipped bits.
  std::vector<std::shared_ptr<const SweepOutcome>> slots(fresh.size());
  if (store_ != nullptr) {
    for (std::size_t f = 0; f < fresh.size(); ++f) {
      const std::string* payload = store_->lookup(keys[fresh[f]]);
      if (payload == nullptr) continue;
      try {
        slots[f] = std::make_shared<SweepOutcome>(decode_outcome(*payload));
        ++stats_.store_hits;
      } catch (const ConfigError&) {
        ++stats_.store_rejects;
      }
    }
  }

  // Fan the remaining evaluations out; per-index slots keep any thread count
  // bit-identical to the serial walk. Each point compiles its plan once and
  // prices activity and cost from it (cost used to re-derive the activity).
  std::vector<std::size_t> compute;  // indices into `fresh` not served above
  for (std::size_t f = 0; f < fresh.size(); ++f)
    if (slots[f] == nullptr) compute.push_back(f);
  const std::int64_t n = static_cast<std::int64_t>(compute.size());
  perf::parallel_chunks(perf::chunk_count(threads_, n), n,
                        [&](std::int64_t, std::int64_t i0, std::int64_t i1) {
                          for (std::int64_t i = i0; i < i1; ++i) {
                            const std::size_t f = compute[static_cast<std::size_t>(i)];
                            const SweepPoint& p = grid[fresh[f]];
                            auto out = std::make_shared<SweepOutcome>();
                            const auto lp = plan::plan_layer(p.kind, p.spec, p.cfg);
                            const auto design = core::make_design(p.kind, p.cfg);
                            out->activity = lp.activity;
                            out->cost = design->cost(lp);
                            slots[f] = std::move(out);
                          }
                        });
  stats_.evaluated += n;
  if (store_ != nullptr)
    for (const std::size_t f : compute) store_->put(keys[fresh[f]], encode_outcome(*slots[f]));

  // Serve results from this call's slots and the memo BEFORE eviction runs:
  // a cap smaller than one grid's unique-point count must bound the memo,
  // not the answer.
  std::vector<SweepOutcome> results;
  results.reserve(grid.size());
  std::size_t fresh_cursor = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto it = pending.find(keys[i]);
    SweepOutcome out = it != pending.end() ? *slots[it->second] : *cache_.at(keys[i]);
    out.from_cache = !(fresh_cursor < fresh.size() && fresh[fresh_cursor] == i);
    if (!out.from_cache) ++fresh_cursor;
    if (out.from_cache) ++stats_.cache_hits;
    results.push_back(std::move(out));
  }

  // Admit this call's evaluations, oldest entries out first once capped.
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    cache_.emplace(keys[fresh[i]], std::move(slots[i]));
    insertion_order_.push_back(keys[fresh[i]]);
  }
  if (max_cache_entries_ > 0) {
    while (std::ssize(insertion_order_) > max_cache_entries_) {
      cache_.erase(insertion_order_.front());
      insertion_order_.pop_front();
      ++stats_.evictions;
    }
  }
  stats_.cached_entries = static_cast<std::int64_t>(cache_.size());

  if (auto* m = telemetry::metrics()) {
    const auto bump = [m](const char* name, std::int64_t delta) {
      if (delta > 0) m->counter(name)->add(static_cast<std::uint64_t>(delta));
    };
    bump("sweep.points", stats_.points - before.points);
    bump("sweep.evaluated", stats_.evaluated - before.evaluated);
    bump("sweep.memo_hits", stats_.cache_hits - before.cache_hits);
    bump("sweep.memo_evictions", stats_.evictions - before.evictions);
    bump("sweep.store_hits", stats_.store_hits - before.store_hits);
    bump("sweep.store_rejects", stats_.store_rejects - before.store_rejects);
    m->gauge("sweep.memo_entries")->set(stats_.cached_entries);
    if (store_ != nullptr) {
      const store::StoreReport& rep = store_->report();
      m->gauge("store.records_loaded")->set(rep.records_loaded);
      m->gauge("store.records_quarantined")->set(rep.records_quarantined);
      m->gauge("store.bytes_skipped")->set(rep.bytes_skipped);
      m->gauge("store.appended")->set(rep.appended);
      m->gauge("store.entries")->set(store_->entries());
    }
  }
  return results;
}

}  // namespace red::explore
