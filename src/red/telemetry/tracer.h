// Span/event tracer with per-thread ring buffers and Chrome trace-event
// JSON export (loadable in Perfetto / chrome://tracing).
//
// Recording is designed for the hot path: each thread owns a fixed-capacity
// ring buffer it alone writes (registered lazily on first record), events
// carry only static-string names plus steady-clock nanoseconds relative to
// the tracer's construction, and a full buffer drops new events (counted)
// rather than allocating or blocking. The only cross-thread communication is
// a release store of the buffer's size after each event and an acquire load
// at export time, so the layer is TSan-clean without relying on external
// joins.
//
// Determinism contract: timestamps are wall-clock-adjacent and therefore
// nondeterministic BY DESIGN — they exist only in the exported trace file and
// must never feed back into results, structural keys, or checkpoints (the
// `telemetry-purity` red_lint rule bans telemetry symbols from those paths).
// With no tracer installed, every instrumentation point is a single relaxed
// atomic load + branch and zero allocations.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace red::telemetry {

/// One completed span ("X" phase in the Chrome trace-event schema). Names
/// and categories are static strings: recording never copies or allocates.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t ts_ns = 0;   ///< start, steady-clock ns since tracer epoch
  std::uint64_t dur_ns = 0;  ///< duration in ns (0 for instant markers)
};

class Tracer {
 public:
  /// `events_per_thread` bounds each thread's buffer; overflow drops (and
  /// counts) rather than reallocating.
  explicit Tracer(std::size_t events_per_thread = 1 << 16);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Nanoseconds since this tracer's construction (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Record a completed span on the calling thread's buffer.
  void record(const char* name, const char* cat, std::uint64_t ts_ns, std::uint64_t dur_ns);

  /// Events dropped because a per-thread buffer filled.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// All events recorded so far, merged across threads and sorted by
  /// (ts_ns, tid, name). tid is the buffer registration ordinal (1-based).
  struct MergedEvent {
    TraceEvent event;
    std::uint32_t tid = 0;
  };
  [[nodiscard]] std::vector<MergedEvent> merged_events() const;

  /// Chrome trace-event JSON: {"traceEvents": [{"ph": "X", "ts": ..,
  /// "dur": .., "pid": 1, "tid": .., "name": .., "cat": ..}, ...]}.
  /// ts/dur are microseconds as the schema requires. Parseable by
  /// report::parse_json and loadable in Perfetto.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Export chrome_trace_json() through store::write_file_atomic.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct ThreadBuffer;
  ThreadBuffer* buffer_for_this_thread();

  const std::size_t capacity_;
  const std::uint64_t epoch_ns_;  ///< steady-clock reading at construction
  std::uint64_t generation_ = 0;  ///< process-unique id for thread-local caching
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;  ///< guards buffers_ registration/merge
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: reads the clock on entry, records on exit. A single branch and
/// no clock read when no tracer is installed. `name`/`cat` must be static
/// strings: string literals, or names returned by intern().
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;  ///< pinned at entry so install/uninstall mid-span is safe
  const char* name_;
  const char* cat_;
  std::uint64_t start_ns_ = 0;
};

/// Process-lifetime copy of `name`, usable as a span name built at run time
/// (e.g. a layer name): equal names share one pointer and the storage is
/// never freed, so spans outlive whatever object supplied the name. Locks and
/// may allocate — call it at setup, never on a recording path.
[[nodiscard]] const char* intern(std::string_view name);

namespace detail {
extern std::atomic<Tracer*> g_tracer_sink;
}  // namespace detail

/// Install `tracer` as the process-wide span sink (nullptr uninstalls). The
/// caller owns it and must keep it alive until after uninstall plus a join
/// of any instrumented work.
void install_tracer(Tracer* tracer);

/// The installed sink, or nullptr (single load + branch on the no-sink path).
[[nodiscard]] inline Tracer* tracer() {
  return detail::g_tracer_sink.load(std::memory_order_acquire);
}

}  // namespace red::telemetry
