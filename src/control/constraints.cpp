#include "roclk/control/constraints.hpp"

#include <cmath>

#include "roclk/signal/jury.hpp"
#include "roclk/signal/roots.hpp"

namespace roclk::control {

ConstraintReport check_paper_constraints(const signal::Polynomial& numerator,
                                         const signal::Polynomial& denominator,
                                         double tol) {
  ConstraintReport report;
  report.n_at_one = numerator.at_one();
  report.d_at_one = denominator.at_one();
  report.numerator_ok = std::fabs(report.n_at_one) > tol;
  report.denominator_ok = std::fabs(report.d_at_one) <= tol;
  return report;
}

std::vector<double> closed_loop_characteristic(
    const signal::Polynomial& numerator, const signal::Polynomial& denominator,
    std::size_t cdn_delay_m) {
  signal::Polynomial characteristic =
      denominator + numerator.delayed(cdn_delay_m + 2);
  characteristic.trim();
  return characteristic.ascending_in_z();
}

Result<ClosedLoopStability> closed_loop_stability(
    const signal::Polynomial& numerator, const signal::Polynomial& denominator,
    std::size_t cdn_delay_m) {
  const auto characteristic =
      closed_loop_characteristic(numerator, denominator, cdn_delay_m);
  auto roots = signal::find_roots(characteristic);
  if (!roots.is_ok()) return roots.status();
  ClosedLoopStability out;
  out.spectral_radius = signal::spectral_radius(roots.value());
  // Strict stability; a tiny tolerance absorbs root-finder noise.
  out.stable = out.spectral_radius < 1.0 - 1e-9;
  return out;
}

std::optional<std::size_t> max_stable_cdn_delay(
    const signal::Polynomial& numerator, const signal::Polynomial& denominator,
    std::size_t max_m) {
  // The Jury table decides each M from the coefficients alone.  Finding
  // the roots costs far more, above all for tap sets stable at no M,
  // whose search runs to max_m over characteristics of degree ~max_m.
  std::optional<std::size_t> best;
  for (std::size_t m = 0; m <= max_m; ++m) {
    const auto jury = signal::jury_test(
        closed_loop_characteristic(numerator, denominator, m));
    if (!jury.is_ok()) break;
    if (jury.value().stable) {
      best = m;
    } else if (best.has_value()) {
      break;  // the first unstable M after a stable one ends the search
    }
  }
  return best;
}

}  // namespace roclk::control
