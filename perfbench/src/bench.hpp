// Entry points of the benchmark binary.  Each mode runs in its own process
// and prints one JSON object as its last stdout line; perfbench/run.py
// orchestrates the processes and assembles the result the harness reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "measure.hpp"
#include "streams.hpp"

namespace perfbench {

/// Set-up is repeated this many times per process and reported as the mean
/// of the middle half of the samples (run.py takes the median of that
/// figure over several processes).
inline constexpr int kSetupRepeats = 15;
/// Closed-loop clients of the serve workloads (each with its own session
/// thread: 4 threads in all).
inline constexpr std::size_t kClients = 2;
/// Requests whose answers make up a serve workload's output digest.
inline constexpr std::uint64_t kDigestRequests = 256;

struct Options {
  /// run | setup (only the set-ups of a run) | verify | rung
  std::string mode;
  Workload workload{Workload::kMcCampaign};
  std::uint64_t seed{1};
  /// run: length of the timed window (mc_campaign runs at least one
  /// iteration, even at 0 seconds).
  double seconds{10.0};
  bool trace{false};
  /// Scratch directory inside the checkout (journals, fingerprint files).
  std::string workdir{"."};
  /// run: where the traced run writes its spans (empty = nowhere).
  std::string spans_path;
  /// run (serve): where the answers to verify are written; verify: read.
  std::string fingerprints_path;
  /// rung: execute | handle | session.
  std::string rung;
};

/// Threads the host offers (at least 1).
[[nodiscard]] std::size_t host_threads();

/// The metadata every record starts with: workload, seed, SIMD backend,
/// hardware concurrency and the threads the process actually used.
[[nodiscard]] JsonLine record_header(const Options& options,
                                     std::size_t threads_used);

/// Adds SweepMemo::global() counters under analysis_memo_*.
void add_memo_stats(JsonLine& json);

int run_mc_campaign(const Options& options);
int run_serve(const Options& options);
int verify_serve(const Options& options);
int run_rung(const Options& options);

}  // namespace perfbench
