// Shared helpers for the figure and perf benches: headers, wall-clock
// timing, and the BENCH_*.json benchmark-entry scaffolding.
#pragma once

#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "red/common/log.h"
#include "red/report/json.h"
#include "red/store/io.h"

namespace red::bench {

inline void print_header(const std::string& title, const std::string& paper_reference) {
  std::cout << "==============================================================\n"
            << title << '\n'
            << "Paper reference: " << paper_reference << '\n'
            << "==============================================================\n";
}

inline void print_section(const std::string& name) { std::cout << "\n--- " << name << " ---\n"; }

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One timed benchmark row of a BENCH_*.json report. Rows carry no memory
/// column: the process-wide peak RSS is one high-water mark for the whole
/// run, so it cannot be attributed to a row.
struct Entry {
  std::string name;
  double real_time_ms = 0.0;    ///< best (minimum) time over `iterations` runs
  std::int64_t iterations = 1;  ///< timed repetitions real_time_ms is the best of
  double wall_ms = -1.0;        ///< total wall-clock across all runs (< 0: unrecorded -> null)
};

/// Durably write a finished BENCH_*.json document (temp + fsync + rename via
/// store::write_file_atomic): a bench killed mid-emit can never leave a torn
/// report for the comparison tooling to choke on. Returns false (after
/// printing the error) instead of throwing so benches keep their exit-code
/// convention.
inline bool write_report_file(const std::string& path, const std::string& content) {
  try {
    store::write_file_atomic(path, content);
  } catch (const std::exception& e) {
    log_error("cannot write " + path + ": " + e.what());
    return false;
  }
  std::cout << "\nWrote " << path << "\n";
  return true;
}

/// Emit the `"benchmarks": [...]` array (without the key) to `os`, doubles
/// at full round-trip precision via report::json_number. `wall_ms` is the
/// entry's total wall-clock when recorded, `null` otherwise.
inline void write_benchmark_array(std::ostream& os, const std::vector<Entry>& entries) {
  os << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    os << "    {\"name\": \"" << entries[i].name << "\", \"real_time_ms\": "
       << report::json_number(entries[i].real_time_ms)
       << ", \"iterations\": " << entries[i].iterations << ", \"wall_ms\": "
       << (entries[i].wall_ms >= 0.0 ? report::json_number(entries[i].wall_ms) : "null") << "}"
       << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  os << "  ]";
}

}  // namespace red::bench
