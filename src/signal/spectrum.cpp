#include "roclk/signal/spectrum.hpp"

#include <cmath>

#include "roclk/common/math.hpp"

namespace roclk::signal {

std::vector<std::complex<double>> dft(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double angle =
          -kTwoPi * static_cast<double>(k) * static_cast<double>(i) /
          static_cast<double>(n);
      acc += xs[i] * std::complex<double>{std::cos(angle), std::sin(angle)};
    }
    out[k] = acc;
  }
  return out;
}

std::complex<double> goertzel(std::span<const double> xs, double frequency) {
  const double w = kTwoPi * frequency;
  const double coeff = 2.0 * std::cos(w);
  double s_prev = 0.0;
  double s_prev2 = 0.0;
  for (double x : xs) {
    const double s = x + coeff * s_prev - s_prev2;
    s_prev2 = s_prev;
    s_prev = s;
  }
  // X(f) = (s_{N-1} - e^{-jw} s_{N-2}) e^{-jw (N-1)}: the trailing rotation
  // re-references the phase to sample 0, matching the DFT definition.
  const std::complex<double> y{s_prev - std::cos(w) * s_prev2,
                               std::sin(w) * s_prev2};
  const double n1 = static_cast<double>(xs.size()) - 1.0;
  return y * std::complex<double>{std::cos(w * n1), -std::sin(w * n1)};
}

double tone_amplitude(std::span<const double> xs, double frequency) {
  if (xs.empty()) return 0.0;
  const auto x = goertzel(xs, frequency);
  return 2.0 * std::abs(x) / static_cast<double>(xs.size());
}

}  // namespace roclk::signal
