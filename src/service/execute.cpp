#include "roclk/service/execute.hpp"

#include <cmath>
#include <exception>
#include <vector>

#include "roclk/analysis/experiments.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/analysis/yield.hpp"

namespace roclk::service {

namespace {

using analysis::RunMetrics;
using analysis::SystemKind;

/// Fixed-clock reference the relative adaptive period normalises by: the
/// design-time period covering the corner's HoDV amplitude and |mu| bound
/// (the paper's worked-example convention).
double fixed_period_for(const CornerQuery& c) {
  const double amplitude = c.amplitude_frac * c.setpoint_c;
  const double mu_bound = std::abs(c.mu_over_c) * c.setpoint_c;
  return analysis::fixed_clock_period(c.setpoint_c, amplitude, mu_bound);
}

/// Simulates one corner.  Always the memo-free core: the service's own
/// bounded ResultCache (and its journal) are the only caches it keeps.
RunMetrics run_corner(const CornerQuery& c, double mu_over_c,
                      double tclk_over_c, double fixed_period) {
  const double setpoint = c.setpoint_c;
  return analysis::simulate_system(
      static_cast<SystemKind>(c.system), setpoint, tclk_over_c * setpoint,
      c.amplitude_frac * setpoint, c.te_over_c * setpoint,
      mu_over_c * setpoint, fixed_period, c.cycles, c.skip,
      c.free_ro_margin_frac * setpoint,
      static_cast<cdn::DelayQuantization>(c.quantization));
}

std::vector<double> grid_points(const GridQuery& g) {
  std::vector<double> xs(g.points);
  const double n = static_cast<double>(g.points) - 1.0;
  for (std::uint64_t i = 0; i < g.points; ++i) {
    const double t = static_cast<double>(i) / n;
    xs[i] = g.scale == GridScale::kLog
                ? g.lo * std::pow(g.hi / g.lo, t)
                : g.lo + (g.hi - g.lo) * t;
  }
  return xs;
}

Response execute_corner(const CornerQuery& c) {
  const RunMetrics m =
      run_corner(c, c.mu_over_c, c.tclk_over_c, fixed_period_for(c));
  Response response;
  response.values = {m.safety_margin, m.mean_period,
                     m.relative_adaptive_period,
                     static_cast<double>(m.violations), m.tau_ripple};
  return response;
}

Response execute_grid(const GridQuery& g, ThreadPool* pool) {
  const std::vector<double> xs = grid_points(g);
  const CornerQuery& b = g.base;
  const double setpoint = b.setpoint_c;
  const double fixed_period = fixed_period_for(b);

  std::vector<RunMetrics> metrics;
  if (g.axis == GridAxis::kTeOverC) {
    // The perturbation period changes per point, so the points cannot
    // share one ensemble waveform; each runs as its own corner.
    metrics.reserve(xs.size());
    for (const double te : xs) {
      CornerQuery point = b;
      point.te_over_c = te;
      metrics.push_back(run_corner(point, point.mu_over_c,
                                   point.tclk_over_c, fixed_period));
    }
  } else {
    // tclk / mu sweeps share the HoDV waveform: one ensemble run, one
    // lane per grid point, on the caller's pool.
    std::vector<double> tclks{b.tclk_over_c * setpoint};
    std::vector<double> mus{b.mu_over_c * setpoint};
    if (g.axis == GridAxis::kTclkOverC) {
      tclks.assign(xs.size(), 0.0);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        tclks[i] = xs[i] * setpoint;
      }
    } else {
      mus.assign(xs.size(), 0.0);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        mus[i] = xs[i] * setpoint;
      }
    }
    metrics = analysis::simulate_system_ensemble(
        static_cast<SystemKind>(b.system), setpoint, tclks,
        b.amplitude_frac * setpoint, b.te_over_c * setpoint, mus,
        fixed_period, b.cycles, b.skip, b.free_ro_margin_frac * setpoint,
        static_cast<cdn::DelayQuantization>(b.quantization), pool);
  }

  Response response;
  response.values.reserve(3 * xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    response.values.push_back(xs[i]);
    response.values.push_back(metrics[i].relative_adaptive_period);
    response.values.push_back(metrics[i].safety_margin);
  }
  return response;
}

Response execute_yield(const YieldQuery& y, ThreadPool* pool) {
  analysis::YieldConfig config;
  config.chips = y.chips;
  config.paths = y.paths;
  config.nominal_depth = y.nominal_depth;
  config.d2d_sigma = y.d2d_sigma;
  config.wid_sigma = y.wid_sigma;
  config.rnd_sigma = y.rnd_sigma;
  config.setpoint_c = y.setpoint_c;
  config.ro_max_length = y.ro_max_length;
  config.seed = y.seed;

  std::vector<double> margins(y.margin_points);
  const double n = static_cast<double>(y.margin_points) - 1.0;
  for (std::uint64_t i = 0; i < y.margin_points; ++i) {
    margins[i] = y.margin_points == 1
                     ? y.margin_lo
                     : y.margin_lo + (y.margin_hi - y.margin_lo) *
                                         (static_cast<double>(i) / n);
  }
  const analysis::YieldCurve curve =
      analysis::yield_curve(margins, config, pool);

  Response response;
  response.values.reserve(3 + 3 * curve.points.size());
  response.values.push_back(curve.mean_worst_path);
  response.values.push_back(curve.mean_adaptive_period);
  response.values.push_back(curve.p99_worst_path);
  for (const analysis::YieldPoint& p : curve.points) {
    response.values.push_back(p.margin_stages);
    response.values.push_back(p.fixed_yield);
    response.values.push_back(p.adaptive_yield);
  }
  return response;
}

}  // namespace

Response execute(const Request& normalized, ThreadPool* pool) {
  try {
    switch (normalized.kind) {
      case QueryKind::kCornerMargin:
        return execute_corner(normalized.corner);
      case QueryKind::kGridSweep:
        return execute_grid(normalized.grid, pool);
      case QueryKind::kYieldCurve:
        return execute_yield(normalized.yield, pool);
    }
    return Response::error(ResponseStatus::kInternalError,
                           "unhandled query kind");
  } catch (const std::exception& e) {
    // Validation is a deliberate superset of the cheap checks only; deep
    // contract violations (non-physical corners) surface here as a typed
    // status instead of tearing down the daemon.
    return Response::error(ResponseStatus::kInternalError, e.what());
  }
}

}  // namespace roclk::service
