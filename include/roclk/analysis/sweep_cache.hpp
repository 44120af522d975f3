// Process-wide memoisation of measure_system results.
//
// The figure sweeps (Fig. 8's two axes, Fig. 9's 3x3 grid, ablations, and
// the integration tests that re-run them) repeatedly simulate identical
// (system, operating-point) cells.  A run is fully determined by the
// parameters below, so the memo stores the fixed-period-independent run
// metrics keyed on them and lets callers skip the re-simulation; the
// relative adaptive period is recomputed from the caller's T_fixed on
// every hit, which is why T_fixed is *not* part of the key.
//
// The memo only covers measure_system's harmonic-HoDV + static-mu runs;
// simulations driven by custom LoopConfigs or variation sources bypass it
// (their inputs are not captured by the key).  The sweep service bypasses
// it too: it calls the memo-free cores (simulate_system,
// simulate_system_ensemble), and its own bounded ResultCache is its only
// cache.  The memo can also be switched off globally (set_enabled(false))
// for timing studies that must re-simulate.
#pragma once

#include <cstddef>
#include <memory>

#include "roclk/analysis/metrics.hpp"
#include "roclk/cdn/cdn.hpp"

namespace roclk::analysis {

/// Everything that determines a measure_system simulation (see
/// experiments.hpp).  Doubles are compared bitwise: sweep grids pass the
/// same representable values on every visit, which is exactly the reuse
/// the memo targets.
struct SweepKey {
  int kind{0};  // SystemKind
  double setpoint_c{0.0};
  double tclk_stages{0.0};
  double amplitude_stages{0.0};
  double period_stages{0.0};
  double mu_stages{0.0};
  std::size_t cycles{0};
  std::size_t skip{0};
  double free_ro_margin{0.0};
  int quantization{0};  // cdn::DelayQuantization

  [[nodiscard]] bool operator==(const SweepKey& other) const = default;
};

struct SweepMemoStats {
  std::size_t hits{0};
  std::size_t misses{0};
  std::size_t entries{0};
};

/// Thread-safe memo; safe to use from parallel_for workers.
class SweepMemo {
 public:
  /// The process-wide instance all sweeps share.
  static SweepMemo& global();

  SweepMemo();
  ~SweepMemo();
  SweepMemo(const SweepMemo&) = delete;
  SweepMemo& operator=(const SweepMemo&) = delete;

  /// Returns true and fills `metrics` (sans relative_adaptive_period,
  /// which the caller renormalises) on a hit.  Counts a hit/miss either
  /// way.  Always misses while disabled.
  bool lookup(const SweepKey& key, RunMetrics& metrics);

  /// Records a finished run.  No-op while disabled.
  void store(const SweepKey& key, const RunMetrics& metrics);

  [[nodiscard]] SweepMemoStats stats() const;

  /// Drops all entries and zeroes the counters.
  void clear();

  void set_enabled(bool enabled);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  // out-of-line dtor: Impl is incomplete here
};

}  // namespace roclk::analysis
