// Rational discrete-time transfer functions H(z) = N(z)/D(z) in z^-1.
//
// The z-domain algebra of paper section III-A: closed-loop assembly with
// the z^{-M-2} loop delay (eqs. 4-5) and the final value theorem behind
// the control constraints N(1) != 0, D(1) = 0 (eq. 8).  Tests use the
// impulse response and the eq. 5 combined input as oracles for the
// simulators.
#pragma once

#include <complex>
#include <optional>
#include <span>
#include <vector>

#include "roclk/common/status.hpp"
#include "roclk/signal/polynomial.hpp"

namespace roclk::signal {

class TransferFunction {
 public:
  /// D must not be identically zero.
  TransferFunction(Polynomial numerator, Polynomial denominator);

  [[nodiscard]] const Polynomial& numerator() const { return num_; }
  [[nodiscard]] const Polynomial& denominator() const { return den_; }

  [[nodiscard]] std::complex<double> evaluate(std::complex<double> z) const;

  /// DC gain H(1); infinite if D(1) = 0 while N(1) != 0 (returned as
  /// nullopt).
  [[nodiscard]] std::optional<double> dc_gain() const;

  /// Final value of the response to a unit step, via the final value
  /// theorem lim_{z->1} (1 - z^-1) * H(z) * 1/(1 - z^-1) = H(1).  Requires
  /// the closed-loop system to be (marginally) stable to be meaningful;
  /// this function only performs the limit algebraically.
  [[nodiscard]] std::optional<double> step_final_value() const;

  /// First `n` samples of the impulse response (long division of N by D).
  [[nodiscard]] std::vector<double> impulse_response(std::size_t n) const;

 private:
  Polynomial num_;
  Polynomial den_;
};

/// Builds the paper's closed-loop transfer functions (eqs. 4 and 5) from a
/// controller H(z) = N(z)/D(z) and the CDN delay M:
///   H_lRO(z) = N / (D + N z^{-M-2})
///   H_delta(z) = D / (D + N z^{-M-2})
struct PaperClosedLoop {
  TransferFunction to_ro_length;  // H_lRO
  TransferFunction to_error;      // H_delta
};
[[nodiscard]] PaperClosedLoop make_paper_closed_loop(
    const Polynomial& controller_numerator,
    const Polynomial& controller_denominator, std::size_t cdn_delay_m);

/// The combined input of eq. (5):
///   p(z) = c(z) + e(z) (1 - z^{-M-1}) z^{-1} - mu(z) z^{-M-2}
/// evaluated sample-by-sample in the time domain for given input sequences.
[[nodiscard]] std::vector<double> paper_combined_input(
    std::span<const double> setpoint, std::span<const double> homogeneous,
    std::span<const double> mismatch, std::size_t cdn_delay_m);

}  // namespace roclk::signal
