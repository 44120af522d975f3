// Streaming RunMetrics reduction for ensemble runs.
//
// MetricsReducer hands EnsembleSimulator's kernel its core::LaneAccumulators,
// and the kernel folds each cycle straight into the figures of merit of
// evaluate_run — required safety margin, mean delivered period, violation
// count, tau ripple — while the cycle's values are still in vector
// registers.  No per-lane SimulationTrace and no per-cycle slice exist,
// so a W-lane Monte-Carlo allocates O(W) accumulator state instead of
// O(W * cycles) trace memory.
//
// The fold uses the *same* definitions, in the *same* order, as
// SimulationTrace + evaluate_run: the margin folds delta[n] = c - tau[n],
// which the kernel computes with the identical subtraction; the period
// mean performs RunningStats::add's Welford update (without the m2 term
// the metrics never read); the tau ripple keeps the running extrema.  The
// resulting RunMetrics are therefore bit-for-bit equal to running each
// lane through run_batch + evaluate_run.  tests/core/test_ensemble_simd
// enforces this on every backend and route.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "roclk/analysis/metrics.hpp"
#include "roclk/core/ensemble_simulator.hpp"
#include "roclk/signal/waveform.hpp"

namespace roclk::analysis {

/// Streaming per-lane RunMetrics.  `skip` drops the initial transient,
/// counted per lane (like evaluate_run's skip).  Thread-safe under pooled
/// EnsembleSimulator runs: each lane's accumulators are written only by
/// the chunk that owns the lane.
class MetricsReducer final : public core::StreamingReducer {
 public:
  /// One fixed-clock reference period per lane.
  MetricsReducer(std::vector<double> fixed_periods, std::size_t skip);

  /// A contract check only: the kernel folds into accumulators() and never
  /// hands this reducer a slice, so a call throws.
  void accumulate(const core::LaneSlice& slice) override;
  [[nodiscard]] core::LaneAccumulators* accumulators() override {
    return &acc_;
  }

  [[nodiscard]] std::size_t lanes() const { return acc_.lanes(); }
  /// Cycles the lane has run, the skipped and isolated ones included.
  [[nodiscard]] std::size_t cycles_seen(std::size_t lane) const;

  /// Finished-run metrics for one lane; requires that more than `skip`
  /// cycles have been seen (same precondition as evaluate_run).  A lane
  /// isolated before it folded a single cycle (EnsembleSimulator::
  /// isolated(), during the transient) has no figures: its safety margin,
  /// mean period, relative adaptive period and tau ripple are NaN and its
  /// violations 0, never values that read as a good lane.
  [[nodiscard]] RunMetrics metrics(std::size_t lane) const;
  /// metrics() for every lane.
  [[nodiscard]] std::vector<RunMetrics> all() const;

 private:
  core::LaneAccumulators acc_;
  std::vector<double> fixed_periods_;
};

/// Convenience wrapper: reset the ensemble, run `block` on `pool`
/// (nullptr = strictly sequential), return one RunMetrics per lane.
/// `fixed_periods` must either hold one shared value or one per lane.
/// Per-lane results are bitwise identical for every choice of pool.
[[nodiscard]] std::vector<RunMetrics> evaluate_ensemble(
    core::EnsembleSimulator& ensemble, const core::InputBlock& block,
    std::vector<double> fixed_periods, std::size_t skip,
    ThreadPool* pool = nullptr);

/// The homogeneous Monte-Carlo fast path: equivalent to evaluate_ensemble
/// over the block sample_ensemble makes of one
/// SimulationInputs::homogeneous(waveform, static_mu_stages[w]) per lane,
/// `cycles` cycles at `dt`, but one EnsembleSimulator::run_homogeneous
/// call: the calling thread samples the waveform once per 8192-cycle
/// (64 KiB) segment, and every 32-lane chunk runs over it as one pool task
/// while the kernel broadcasts each sample to the chunk's lanes beside
/// their own mu, so a long study never materialises cycles * lanes * 3
/// doubles at once.  Per-lane results are bit-identical to the
/// whole-block path — and therefore to per-lane run_batch + evaluate_run —
/// and for every choice of `pool` (nullptr = strictly sequential): the
/// scheduling-invariance contract the MC gating tests enforce.
[[nodiscard]] std::vector<RunMetrics> evaluate_homogeneous_mc(
    core::EnsembleSimulator& ensemble, const signal::Waveform& waveform,
    std::span<const double> static_mu_stages, std::size_t cycles, double dt,
    std::vector<double> fixed_periods, std::size_t skip,
    ThreadPool* pool = nullptr);

}  // namespace roclk::analysis
