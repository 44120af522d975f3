// Shared helpers for the experiment benches.
//
// Every bench prints the paper artefact it regenerates (series tables and
// an ASCII rendition of the figure) and saves the raw rows as CSV under
// bench_results/ so external plotting can reproduce the exact figure.
#pragma once

#include <cstdio>
#include <filesystem>
#include <string>

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

}  // namespace roclk::bench
