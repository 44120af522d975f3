// Shared helpers for the experiment benches.
//
// Every bench prints the paper artefact it regenerates (series tables and
// an ASCII rendition of the figure) and saves the raw rows as CSV under
// bench_results/ so external plotting can reproduce the exact figure.
#pragma once

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "roclk/common/table.hpp"

namespace roclk::bench {

/// Directory CSV artefacts are written to (created on demand).
inline std::string results_dir() {
  const std::filesystem::path dir{"bench_results"};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir.string();
}

/// Saves a table to bench_results/<name>.csv and reports where.
inline void save_table(const TextTable& table, const std::string& name) {
  const std::string path = results_dir() + "/" + name + ".csv";
  if (table.save_csv(path)) {
    std::printf("[csv] %s\n", path.c_str());
  } else {
    std::printf("[csv] FAILED to write %s\n", path.c_str());
  }
}

inline void print_header(const char* artefact, const char* description) {
  std::printf("\n================================================================================\n");
  std::printf("%s\n%s\n", artefact, description);
  std::printf("================================================================================\n\n");
}

/// Number of shape checks that have failed in this process.
inline int& shape_failures() {
  static int failures = 0;
  return failures;
}

/// Prints a shape-assertion line: whether the paper's qualitative claim
/// held in this run.  A [SHAPE-DIFF] also makes shape_exit_code() nonzero;
/// the bench still runs to the end, so every artefact is written.
inline void shape_check(bool ok, const char* claim) {
  std::printf("[%s] %s\n", ok ? "SHAPE-OK " : "SHAPE-DIFF", claim);
  if (!ok) ++shape_failures();
}

/// Exit status every bench returns from main(): 1 once any shape check
/// printed [SHAPE-DIFF], else 0.
[[nodiscard]] inline int shape_exit_code() {
  return shape_failures() == 0 ? 0 : 1;
}

// ------------------------------------------------- perf-run recording

/// One before/after measurement of a perf runner.  `threads` is the thread
/// count the 'after' path actually used (not hardware_concurrency, which
/// the run record carries separately) and `simd_backend` the kernel
/// backend it dispatched to — both recorded per entry so a sweeps file
/// mixing scalar/SIMD and 1-thread/N-thread runs stays interpretable.
struct PerfEntry {
  std::string name;
  std::string unit;
  double before_items_per_sec{0.0};
  double after_items_per_sec{0.0};
  int threads{1};
  std::string simd_backend{"scalar"};
  /// Optional latency percentiles in microseconds (service soak entries).
  /// Emitted into the JSON record only when p99_us > 0.
  double p50_us{0.0};
  double p95_us{0.0};
  double p99_us{0.0};
  [[nodiscard]] double speedup() const {
    return before_items_per_sec > 0.0
               ? after_items_per_sec / before_items_per_sec
               : 0.0;
  }
};

/// Git revision the binary was configured from (set by CMake; "-dirty"
/// marks an uncommitted tree).
inline const char* git_sha() {
#ifdef ROCLK_GIT_SHA
  return ROCLK_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Current wall-clock time as ISO-8601 UTC.
inline std::string timestamp_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Appends one run record to a schema-2 perf log:
///   {"schema": 2,
///    "runs": [{"runner", "git_sha", "timestamp_utc", "hardware_threads",
///              "notes", "benchmarks": [...]}, ...]}
/// Every invocation appends a run instead of clobbering history, so the
/// committed file accumulates the perf trajectory across PRs.  A missing or
/// pre-schema-2 file is started fresh.  `runner` and `notes` must not
/// contain characters needing JSON escaping.
inline bool append_perf_run(const std::string& path,
                            const std::string& runner,
                            const std::string& notes,
                            const std::vector<PerfEntry>& entries) {
  std::ostringstream run;
  run << "    {\n"
      << "      \"runner\": \"" << runner << "\",\n"
      << "      \"git_sha\": \"" << git_sha() << "\",\n"
      << "      \"timestamp_utc\": \"" << timestamp_utc() << "\",\n"
      << "      \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "      \"notes\": \"" << notes << "\",\n"
      << "      \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const PerfEntry& e = entries[i];
    char latency[160] = "";
    if (e.p99_us > 0.0) {
      std::snprintf(latency, sizeof latency,
                    ", \"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f",
                    e.p50_us, e.p95_us, e.p99_us);
    }
    char line[640];
    std::snprintf(line, sizeof line,
                  "        {\"name\": \"%s\", \"unit\": \"%s\", "
                  "\"before_items_per_sec\": %.1f, "
                  "\"after_items_per_sec\": %.1f, \"speedup\": %.2f, "
                  "\"threads\": %d, \"simd_backend\": \"%s\"%s}%s\n",
                  e.name.c_str(), e.unit.c_str(), e.before_items_per_sec,
                  e.after_items_per_sec, e.speedup(), e.threads,
                  e.simd_backend.c_str(), latency,
                  i + 1 < entries.size() ? "," : "");
    run << line;
  }
  run << "      ]\n    }";

  std::string existing;
  {
    std::ifstream in{path, std::ios::binary};
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = buf.str();
    }
  }

  // An existing schema-2 file ends with the close of "runs"; splice the new
  // run in front of it.  Anything else (absent, legacy schema) starts over.
  std::string out;
  const std::string closing = "\n  ]\n}";
  const std::size_t at = existing.rfind(closing);
  if (existing.rfind("{\n  \"schema\": 2", 0) == 0 &&
      at != std::string::npos) {
    out = existing.substr(0, at) + ",\n" + run.str() + "\n  ]\n}\n";
  } else {
    out = "{\n  \"schema\": 2,\n  \"runs\": [\n" + run.str() + "\n  ]\n}\n";
  }

  std::ofstream f{path, std::ios::binary | std::ios::trunc};
  if (!f) return false;
  f << out;
  return static_cast<bool>(f);
}

}  // namespace roclk::bench
