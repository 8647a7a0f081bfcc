// Minimal work-helping thread pool for tile/layer parallelism.
//
// parallel_for(n, fn) runs fn(0..n-1) across the pool's workers with the
// calling thread participating, and blocks until every index finished. A
// worker that calls parallel_for from inside a task simply helps drain the
// nested job, so nesting (e.g. network-level layer parallelism over designs
// whose run() tiles internally) cannot deadlock. Indices are claimed
// dynamically, so callers that need deterministic results must write into
// per-index slots and reduce after the join — every call site in this repo
// does exactly that, which is how threaded runs stay bit-exact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>

#include "red/telemetry/tracer.h"

namespace red::perf {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining lane).
  /// threads <= 1 means no workers: parallel_for degenerates to a serial loop.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + the calling thread).
  [[nodiscard]] int threads() const;

  /// Run fn(i) for every i in [0, n); returns when all completed. The first
  /// exception thrown by any index is rethrown on the caller.
  void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn);

  /// Process-wide pool, created on first use. Sized by the RED_THREADS
  /// environment variable when set (>= 1), else hardware concurrency.
  static ThreadPool& global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// parallel_for on the process-wide pool — except n <= 1 runs inline without
/// ever constructing the pool, so purely serial work stays thread-free.
inline void parallel_for_shared(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  if (n <= 1) {
    if (n == 1) fn(0);
    return;
  }
  ThreadPool::global().parallel_for(n, fn);
}

/// Number of contiguous chunks `threads` requested lanes get over `items`
/// work items: at least 1, never more than the items available.
inline std::int64_t chunk_count(int threads, std::int64_t items) {
  return std::clamp<std::int64_t>(threads, 1, std::max<std::int64_t>(items, 1));
}

/// Run fn(slot, begin, end) over `chunks` contiguous ranges of [0, items) on
/// the shared pool. The determinism idiom every call site follows: pre-size
/// per-slot state with the same `chunks`, write only into slot `t` inside
/// fn, and reduce after the join in slot order — bit-exact for any count.
/// A non-null `span_name` (a static string) records one trace span per
/// chunk, so a trace shows how the work split across lanes.
template <typename Fn>
void parallel_chunks(std::int64_t chunks, std::int64_t items, Fn&& fn,
                     const char* span_name = nullptr) {
  parallel_for_shared(chunks, [&](std::int64_t t) {
    if (span_name == nullptr) {
      fn(t, items * t / chunks, items * (t + 1) / chunks);
      return;
    }
    const telemetry::ScopedSpan span(span_name, "perf");
    fn(t, items * t / chunks, items * (t + 1) / chunks);
  });
}

}  // namespace red::perf
