#include "red/telemetry/tracer.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>

#include "red/report/json.h"
#include "red/store/io.h"

namespace red::telemetry {

namespace detail {
std::atomic<Tracer*> g_tracer_sink{nullptr};
}  // namespace detail

void install_tracer(Tracer* tracer) {
  detail::g_tracer_sink.store(tracer, std::memory_order_release);
}

const char* intern(std::string_view name) {
  struct Table {
    std::mutex mu;
    std::set<std::string, std::less<>> names;  ///< nodes never move: c_str() is stable
  };
  // Deliberately never destroyed: a trace may be exported during static
  // destruction, after a function-local static table would be gone.
  static Table* const table = new Table();
  std::lock_guard<std::mutex> lock(table->mu);
  auto it = table->names.find(name);
  if (it == table->names.end()) it = table->names.emplace(name).first;
  return it->c_str();
}

namespace {

std::uint64_t steady_now_ns() {
  const auto now = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch()).count());
}

/// Distinguishes tracers beyond their address: a thread's cached buffer
/// pointer must die with the tracer that owns it, and a new tracer can land
/// at the freed address.
std::atomic<std::uint64_t> g_tracer_generation{0};

}  // namespace

/// Owned by exactly one recording thread; `size` is the only cross-thread
/// field (release store after each completed slot, acquire load at merge).
/// Slots [0, size) are immutable once published, so a live export never
/// races a recorder.
struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(std::size_t capacity) : events(capacity) {}
  std::vector<TraceEvent> events;
  std::atomic<std::uint32_t> size{0};
  std::uint64_t generation = 0;
};

Tracer::Tracer(std::size_t events_per_thread)
    : capacity_(std::max<std::size_t>(events_per_thread, 1)), epoch_ns_(steady_now_ns()) {
  generation_ = g_tracer_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

Tracer::~Tracer() = default;

std::uint64_t Tracer::now_ns() const { return steady_now_ns() - epoch_ns_; }

Tracer::ThreadBuffer* Tracer::buffer_for_this_thread() {
  thread_local std::uint64_t cached_generation = 0;
  thread_local ThreadBuffer* cached_buffer = nullptr;
  if (cached_generation != generation_) {
    auto buf = std::make_unique<ThreadBuffer>(capacity_);
    buf->generation = generation_;
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(buf));
    cached_buffer = buffers_.back().get();
    cached_generation = generation_;
  }
  return cached_buffer;
}

void Tracer::record(const char* name, const char* cat, std::uint64_t ts_ns,
                    std::uint64_t dur_ns) {
  ThreadBuffer* buf = buffer_for_this_thread();
  const std::uint32_t n = buf->size.load(std::memory_order_relaxed);
  if (n >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf->events[n] = TraceEvent{name, cat, ts_ns, dur_ns};
  buf->size.store(n + 1, std::memory_order_release);
}

std::vector<Tracer::MergedEvent> Tracer::merged_events() const {
  std::vector<MergedEvent> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t b = 0; b < buffers_.size(); ++b) {
      const std::uint32_t n = buffers_[b]->size.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < n; ++i)
        out.push_back(MergedEvent{buffers_[b]->events[i], static_cast<std::uint32_t>(b + 1)});
    }
  }
  std::sort(out.begin(), out.end(), [](const MergedEvent& a, const MergedEvent& b) {
    if (a.event.ts_ns != b.event.ts_ns) return a.event.ts_ns < b.event.ts_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return std::strcmp(a.event.name, b.event.name) < 0;
  });
  return out;
}

std::string Tracer::chrome_trace_json() const {
  const auto events = merged_events();
  report::JsonWriter w(1);
  w.open();
  w.array("traceEvents");
  for (const auto& e : events) {
    w.item_object();
    w.field("ph", "X");
    w.field("ts", static_cast<double>(e.event.ts_ns) / 1000.0);
    w.field("dur", static_cast<double>(e.event.dur_ns) / 1000.0);
    w.field("pid", std::int64_t{1});
    w.field("tid", static_cast<std::int64_t>(e.tid));
    w.field("name", e.event.name);
    w.field("cat", e.event.cat == nullptr ? "red" : e.event.cat);
    w.close(false);
  }
  w.close_array();
  w.field("displayTimeUnit", "ms");
  w.field("droppedEvents", dropped());
  w.close();
  return w.str();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  store::write_file_atomic(path, chrome_trace_json());
}

ScopedSpan::ScopedSpan(const char* name, const char* cat)
    : tracer_(telemetry::tracer()), name_(name), cat_(cat) {
  if (tracer_ != nullptr) start_ns_ = tracer_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->record(name_, cat_, start_ns_, tracer_->now_ns() - start_ns_);
}

}  // namespace red::telemetry
