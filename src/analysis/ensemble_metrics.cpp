#include "roclk/analysis/ensemble_metrics.hpp"

#include <limits>

#include "roclk/common/status.hpp"

namespace roclk::analysis {

MetricsReducer::MetricsReducer(std::vector<double> fixed_periods,
                               std::size_t skip)
    : acc_{fixed_periods.size(), skip},
      fixed_periods_{std::move(fixed_periods)} {
  ROCLK_CHECK(!fixed_periods_.empty(), "reducer needs at least one lane");
  for (double fixed : fixed_periods_) {
    ROCLK_CHECK(fixed > 0.0, "fixed period must be positive");
  }
}

void MetricsReducer::accumulate(const core::LaneSlice& slice) {
  ROCLK_CHECK(false, "MetricsReducer takes no slices (lanes "
                         << slice.first_lane << ".."
                         << slice.first_lane + slice.width
                         << "): the ensemble kernel folds into its "
                            "accumulators()");
}

std::size_t MetricsReducer::cycles_seen(std::size_t lane) const {
  ROCLK_CHECK(lane < lanes(), "lane " << lane << " out of range");
  return acc_.seen[lane];
}

RunMetrics MetricsReducer::metrics(std::size_t lane) const {
  // Same precondition as evaluate_run: the transient skip must leave at
  // least one sample.
  ROCLK_CHECK(acc_.skip < cycles_seen(lane), "transient skip longer than run");
  RunMetrics metrics;
  if (acc_.count[lane] == 0.0) {
    // Isolated during the transient: nothing was folded, and the initial
    // accumulator values (a zero margin, a zero mean) must not pass for a
    // perfect lane.  The violation count stays 0.
    const double none = std::numeric_limits<double>::quiet_NaN();
    metrics.safety_margin = none;
    metrics.mean_period = none;
    metrics.relative_adaptive_period = none;
    metrics.tau_ripple = none;
    return metrics;
  }
  metrics.safety_margin = acc_.worst_delta[lane];
  metrics.mean_period = acc_.mean[lane];
  metrics.relative_adaptive_period =
      (metrics.mean_period + metrics.safety_margin) /
      fixed_periods_[lane];
  metrics.violations = static_cast<std::size_t>(acc_.violations[lane]);
  metrics.tau_ripple = acc_.tau_max[lane] - acc_.tau_min[lane];
  return metrics;
}

std::vector<RunMetrics> MetricsReducer::all() const {
  std::vector<RunMetrics> out;
  out.reserve(lanes());
  for (std::size_t lane = 0; lane < lanes(); ++lane) {
    out.push_back(metrics(lane));
  }
  return out;
}

namespace {

/// The set-up both wrappers share: checks that the transient skip leaves
/// a cycle, gives every lane its fixed period (one shared value is
/// broadcast), resets the ensemble, and returns the reducer to run into.
MetricsReducer start_run(core::EnsembleSimulator& ensemble, std::size_t cycles,
                         std::vector<double> fixed_periods, std::size_t skip) {
  const std::size_t lanes = ensemble.width();
  ROCLK_CHECK(skip < cycles, "transient skip " << skip
                                               << " must leave at least one "
                                                  "of the "
                                               << cycles << " cycles");
  if (fixed_periods.size() == 1 && lanes > 1) {
    fixed_periods.assign(lanes, fixed_periods.front());
  }
  ROCLK_CHECK(fixed_periods.size() == lanes,
              "need one fixed period per lane (or one shared), got "
                  << fixed_periods.size() << " for " << lanes << " lanes");
  ensemble.reset();
  return MetricsReducer{std::move(fixed_periods), skip};
}

}  // namespace

std::vector<RunMetrics> evaluate_ensemble(
    core::EnsembleSimulator& ensemble, const core::InputBlock& block,
    std::vector<double> fixed_periods, std::size_t skip, ThreadPool* pool) {
  MetricsReducer reducer =
      start_run(ensemble, block.cycles, std::move(fixed_periods), skip);
  ensemble.run(block, reducer, pool);
  return reducer.all();
}

std::vector<RunMetrics> evaluate_homogeneous_mc(
    core::EnsembleSimulator& ensemble, const signal::Waveform& waveform,
    std::span<const double> static_mu_stages, std::size_t cycles, double dt,
    std::vector<double> fixed_periods, std::size_t skip, ThreadPool* pool) {
  MetricsReducer reducer =
      start_run(ensemble, cycles, std::move(fixed_periods), skip);
  ensemble.run_homogeneous(waveform, static_mu_stages, dt, cycles, reducer,
                           pool);
  return reducer.all();
}

}  // namespace roclk::analysis
