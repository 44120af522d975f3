// Black-box estimation of loop properties from traces.
//
// A silicon bring-up engineer sees traces, not block diagrams: this module
// recovers the loop's effective transport delay *from measurements
// alone*, which both validates the model (tests compare estimates against
// configured ground truth) and gives the library a post-silicon
// characterisation story.  The free-running RO's residual under a
// perturbation nu(t) is nu(t) - nu(t - d_eff); cross-correlating the
// timing error against the perturbation recovers d_eff (= t_clk + RO/TDC
// registers).  analysis/frequency_response measures eq. 5's |H|.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "roclk/common/status.hpp"

namespace roclk::analysis {

/// Normalised cross-correlation of x and y at integer lag k (y delayed by
/// k samples relative to x); both series mean-removed.
[[nodiscard]] double cross_correlation_at_lag(std::span<const double> x,
                                              std::span<const double> y,
                                              std::ptrdiff_t lag);

/// Lag in [min_lag, max_lag] maximising the cross-correlation.
[[nodiscard]] std::ptrdiff_t best_lag(std::span<const double> x,
                                      std::span<const double> y,
                                      std::ptrdiff_t min_lag,
                                      std::ptrdiff_t max_lag);

struct LoopDelayEstimate {
  /// Effective transport delay in samples (cycles).
  std::ptrdiff_t delay_cycles{0};
  /// Peak correlation achieved at that delay (quality indicator, ~1 good).
  double correlation{0.0};
};

/// Estimates the effective loop transport delay from a *free-running RO*
/// trace: its timing error is e[n - d] - e[n - 1], so correlating
/// (error + e[n-1]) against e and searching lags recovers d.
/// `perturbation` must hold e[n] (stages) for the same cycles as `error`
/// holds tau[n] - c.
[[nodiscard]] Result<LoopDelayEstimate> estimate_loop_delay(
    std::span<const double> timing_error,
    std::span<const double> perturbation, std::ptrdiff_t max_delay = 64);

}  // namespace roclk::analysis
