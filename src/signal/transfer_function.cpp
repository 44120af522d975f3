#include "roclk/signal/transfer_function.hpp"

#include <algorithm>
#include <cmath>

namespace roclk::signal {

TransferFunction::TransferFunction(Polynomial numerator,
                                   Polynomial denominator)
    : num_{std::move(numerator)}, den_{std::move(denominator)} {
  bool all_zero = true;
  for (double c : den_.coefficients()) {
    if (c != 0.0) {
      all_zero = false;
      break;
    }
  }
  ROCLK_CHECK(!all_zero, "transfer function denominator is zero");
}

std::complex<double> TransferFunction::evaluate(std::complex<double> z) const {
  return num_.evaluate(z) / den_.evaluate(z);
}

std::optional<double> TransferFunction::dc_gain() const {
  const double d1 = den_.at_one();
  if (std::fabs(d1) < 1e-12) return std::nullopt;
  return num_.at_one() / d1;
}

std::optional<double> TransferFunction::step_final_value() const {
  // FVT: lim (1 - z^-1) H(z) / (1 - z^-1) = H(1) when the limit exists.
  return dc_gain();
}

std::vector<double> TransferFunction::impulse_response(std::size_t n) const {
  // Long division: y[k] = (num[k] - sum_{i>=1} den[i] y[k-i]) / den[0],
  // where den[0] is the first nonzero denominator coefficient (a shared
  // leading delay cancels in the ratio).
  Polynomial num = num_;
  Polynomial den = den_;
  // Strip the common leading delay.
  std::size_t lead = 0;
  while (den.coefficient(lead) == 0.0) ++lead;
  ROCLK_CHECK(lead <= den.degree(), "zero denominator");

  std::vector<double> y(n, 0.0);
  const double d0 = den.coefficient(lead);
  for (std::size_t k = 0; k < n; ++k) {
    double acc = num.coefficient(k + lead);
    for (std::size_t i = 1; i + lead <= den.degree(); ++i) {
      if (i > k) break;
      acc -= den.coefficient(lead + i) * y[k - i];
    }
    y[k] = acc / d0;
  }
  return y;
}

PaperClosedLoop make_paper_closed_loop(const Polynomial& controller_numerator,
                                       const Polynomial& controller_denominator,
                                       std::size_t cdn_delay_m) {
  // Loop delay: RO update (z^-1) + CDN (z^-M) + TDC measurement (z^-1).
  const Polynomial loop_delay = Polynomial::delay(cdn_delay_m + 2);
  Polynomial closed_den =
      controller_denominator + controller_numerator * loop_delay;
  TransferFunction to_lro{controller_numerator, closed_den};
  TransferFunction to_delta{controller_denominator, closed_den};
  return {std::move(to_lro), std::move(to_delta)};
}

std::vector<double> paper_combined_input(std::span<const double> setpoint,
                                         std::span<const double> homogeneous,
                                         std::span<const double> mismatch,
                                         std::size_t cdn_delay_m) {
  const std::size_t n =
      std::max({setpoint.size(), homogeneous.size(), mismatch.size()});
  auto at = [](std::span<const double> xs, std::ptrdiff_t i) {
    return (i >= 0 && static_cast<std::size_t>(i) < xs.size()) ? xs[static_cast<std::size_t>(i)] : 0.0;
  };
  std::vector<double> p(n, 0.0);
  const auto m = static_cast<std::ptrdiff_t>(cdn_delay_m);
  for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(n); ++k) {
    // p[k] = c[k] + e[k-1] - e[k-M-2] - mu[k-M-2]   (eq. 5 text)
    p[static_cast<std::size_t>(k)] = at(setpoint, k) + at(homogeneous, k - 1) -
                                     at(homogeneous, k - m - 2) -
                                     at(mismatch, k - m - 2);
  }
  return p;
}

}  // namespace roclk::signal
