#include "roclk/analysis/analytic.hpp"

#include <algorithm>
#include <cmath>

#include "roclk/common/math.hpp"
#include "roclk/common/status.hpp"

namespace roclk::analysis {

double cdn_mismatch(const signal::Waveform& nu, double t, double t_clk) {
  return nu.at(t) - nu.at(t - t_clk);
}

double harmonic_worst_mismatch(double t_clk, double period, double amplitude) {
  ROCLK_CHECK(period > 0.0, "period must be positive");
  return 2.0 * std::fabs(amplitude) *
         std::fabs(std::sin(kPi * t_clk / period));
}

double single_event_worst_mismatch(double t_clk, double duration,
                                   double amplitude) {
  ROCLK_CHECK(duration > 0.0, "duration must be positive");
  const double ratio = t_clk / duration;
  if (ratio <= 0.0) return 0.0;
  if (ratio <= 0.5) return 2.0 * std::fabs(amplitude) * ratio;
  return std::fabs(amplitude);
}

bool harmonic_ro_beneficial(double t_clk, double period) {
  // The RO helps when its induced worst mismatch 2 nu0 |sin(pi t/T)| stays
  // below the bare perturbation amplitude nu0.
  return harmonic_worst_mismatch(t_clk, period, 1.0) < 1.0;
}

double numeric_worst_mismatch(const signal::Waveform& nu, double period,
                              double t_clk, std::size_t samples) {
  ROCLK_CHECK(samples >= 2, "need at least two samples");
  double worst = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double t =
        period * static_cast<double>(i) / static_cast<double>(samples);
    worst = std::max(worst, std::fabs(cdn_mismatch(nu, t, t_clk)));
  }
  return worst;
}

}  // namespace roclk::analysis
