#include "roclk/analysis/ensemble_metrics.hpp"

#include <algorithm>

#include "roclk/common/status.hpp"

namespace roclk::analysis {

MetricsReducer::MetricsReducer(std::size_t lanes, double fixed_period,
                               std::size_t skip)
    : MetricsReducer{std::vector<double>(lanes, fixed_period), skip} {}

MetricsReducer::MetricsReducer(std::vector<double> fixed_periods,
                               std::size_t skip)
    : accumulators_(fixed_periods.size()),
      fixed_periods_{std::move(fixed_periods)},
      skip_{skip} {
  ROCLK_CHECK(!fixed_periods_.empty(), "reducer needs at least one lane");
  for (double fixed : fixed_periods_) {
    ROCLK_CHECK(fixed > 0.0, "fixed period must be positive");
  }
}

void MetricsReducer::accumulate(const core::LaneSlice& slice) {
  ROCLK_CHECK(slice.first_lane + slice.width <= accumulators_.size(),
                "lane slice out of range");
  LaneAccumulator* const accs = accumulators_.data() + slice.first_lane;
  const double* const delta = slice.delta;
  const double* const t_dlv = slice.t_dlv;
  const double* const tau = slice.tau;
  const std::uint8_t* const violation = slice.violation;
  const std::uint8_t* const isolated = slice.isolated;
  for (std::size_t w = 0; w < slice.width; ++w) {
    LaneAccumulator& acc = accs[w];
    // An isolated lane's slice entries repeat its last good cycle; folding
    // them would weight the frozen values into the ensemble statistics.
    // The metrics therefore stop at the isolation point (the lane is
    // reported via EnsembleSimulator::isolated()).
    if (isolated != nullptr && isolated[w] != 0) {
      ++acc.seen;
      continue;
    }
    if (acc.seen++ < skip_) continue;
    // delta[n] = c - tau[n] is computed by the kernel with the identical
    // subtraction required_safety_margin performs, so folding it keeps the
    // margin bit-for-bit equal to the trace-based path.
    acc.worst_margin = std::max(acc.worst_margin, delta[w]);
    // RunningStats::add's Welford mean, without the m2 update the metrics
    // never consume.
    ++acc.period_n;
    acc.period_mean += (t_dlv[w] - acc.period_mean) /
                       static_cast<double>(acc.period_n);
    acc.tau_min = std::min(acc.tau_min, tau[w]);
    acc.tau_max = std::max(acc.tau_max, tau[w]);
    acc.violations += violation[w];
  }
}

std::size_t MetricsReducer::cycles_seen(std::size_t lane) const {
  return accumulators_.at(lane).seen;
}

RunMetrics MetricsReducer::metrics(std::size_t lane) const {
  const LaneAccumulator& acc = accumulators_.at(lane);
  // Same precondition as evaluate_run: the transient skip must leave at
  // least one sample.
  ROCLK_CHECK(skip_ < acc.seen, "transient skip longer than run");
  RunMetrics metrics;
  metrics.safety_margin = acc.worst_margin;
  metrics.mean_period = acc.period_mean;
  metrics.relative_adaptive_period =
      (metrics.mean_period + metrics.safety_margin) /
      fixed_periods_[lane];
  metrics.violations = acc.violations;
  metrics.tau_ripple = acc.tau_max - acc.tau_min;
  return metrics;
}

std::vector<RunMetrics> MetricsReducer::all() const {
  std::vector<RunMetrics> out;
  out.reserve(accumulators_.size());
  for (std::size_t lane = 0; lane < accumulators_.size(); ++lane) {
    out.push_back(metrics(lane));
  }
  return out;
}

std::vector<RunMetrics> evaluate_ensemble(
    core::EnsembleSimulator& ensemble, const core::EnsembleInputBlock& block,
    std::vector<double> fixed_periods, std::size_t skip, bool parallel) {
  return evaluate_ensemble(ensemble, block, std::move(fixed_periods), skip,
                           parallel ? &ThreadPool::shared() : nullptr);
}

std::vector<RunMetrics> evaluate_ensemble(
    core::EnsembleSimulator& ensemble, const core::EnsembleInputBlock& block,
    std::vector<double> fixed_periods, std::size_t skip, ThreadPool* pool) {
  const std::size_t lanes = ensemble.width();
  if (fixed_periods.size() == 1 && lanes > 1) {
    fixed_periods.assign(lanes, fixed_periods.front());
  }
  ROCLK_CHECK(fixed_periods.size() == lanes,
                "need one fixed period per lane (or one shared)");
  MetricsReducer reducer{std::move(fixed_periods), skip};
  ensemble.reset();
  ensemble.run(block, reducer, pool);
  return reducer.all();
}

std::vector<RunMetrics> evaluate_homogeneous_mc(
    core::EnsembleSimulator& ensemble, const signal::Waveform& waveform,
    std::span<const double> static_mu_stages, std::size_t cycles, double dt,
    std::vector<double> fixed_periods, std::size_t skip, bool parallel) {
  return evaluate_homogeneous_mc(ensemble, waveform, static_mu_stages,
                                 cycles, dt, std::move(fixed_periods), skip,
                                 parallel ? &ThreadPool::shared() : nullptr);
}

std::vector<RunMetrics> evaluate_homogeneous_mc(
    core::EnsembleSimulator& ensemble, const signal::Waveform& waveform,
    std::span<const double> static_mu_stages, std::size_t cycles, double dt,
    std::vector<double> fixed_periods, std::size_t skip, ThreadPool* pool) {
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
  MetricsReducer reducer{std::move(fixed_periods), skip};
  ensemble.reset();
  ensemble.run_homogeneous(waveform, static_mu_stages, dt, cycles, reducer,
                           pool);
  return reducer.all();
}

}  // namespace roclk::analysis
