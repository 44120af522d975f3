#include "roclk/analysis/estimation.hpp"

#include <algorithm>
#include <cmath>

#include "roclk/common/stats.hpp"

namespace roclk::analysis {

double cross_correlation_at_lag(std::span<const double> x,
                                std::span<const double> y,
                                std::ptrdiff_t lag) {
  ROCLK_CHECK(x.size() == y.size(), "series length mismatch");
  ROCLK_CHECK(!x.empty(), "empty series");
  const double mx = mean(x);
  const double my = mean(y);
  double num = 0.0;
  double sx = 0.0;
  double sy = 0.0;
  const auto n = static_cast<std::ptrdiff_t>(x.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t j = i - lag;
    if (j < 0 || j >= n) continue;
    const double xv = x[static_cast<std::size_t>(j)] - mx;
    const double yv = y[static_cast<std::size_t>(i)] - my;
    num += xv * yv;
    sx += xv * xv;
    sy += yv * yv;
  }
  if (sx <= 0.0 || sy <= 0.0) return 0.0;
  return num / std::sqrt(sx * sy);
}

std::ptrdiff_t best_lag(std::span<const double> x, std::span<const double> y,
                        std::ptrdiff_t min_lag, std::ptrdiff_t max_lag) {
  ROCLK_CHECK(min_lag <= max_lag, "empty lag range");
  std::ptrdiff_t best = min_lag;
  double best_corr = -2.0;
  for (std::ptrdiff_t lag = min_lag; lag <= max_lag; ++lag) {
    const double corr = cross_correlation_at_lag(x, y, lag);
    if (corr > best_corr) {
      best_corr = corr;
      best = lag;
    }
  }
  return best;
}

Result<LoopDelayEstimate> estimate_loop_delay(
    std::span<const double> timing_error,
    std::span<const double> perturbation, std::ptrdiff_t max_delay) {
  if (timing_error.size() != perturbation.size()) {
    return Status::invalid_argument("series length mismatch");
  }
  if (timing_error.size() < static_cast<std::size_t>(max_delay) + 8) {
    return Status::invalid_argument("trace too short for the lag search");
  }
  // Free-RO residual: err[n] = e[n-d] - e[n-1].  Reconstruct the delayed
  // copy: err[n] + e[n-1] = e[n-d], then find d by correlation.
  const auto n = timing_error.size();
  std::vector<double> reconstructed(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) {
    reconstructed[i] = timing_error[i] + perturbation[i - 1];
  }
  LoopDelayEstimate estimate;
  estimate.delay_cycles =
      best_lag(perturbation, reconstructed, 0, max_delay);
  estimate.correlation = cross_correlation_at_lag(
      perturbation, reconstructed, estimate.delay_cycles);
  if (estimate.correlation < 0.5) {
    return Status::failed_precondition(
        "no coherent delayed copy found (is this a free-RO trace?)");
  }
  return estimate;
}

}  // namespace roclk::analysis
