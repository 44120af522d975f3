// Polynomials in z^-1 for discrete-time transfer functions.
//
// A Polynomial stores coefficients {a0, a1, ..., aN} and represents
//   a(z) = a0 + a1*z^-1 + ... + aN*z^-N .
// This is the natural form for the paper's z-domain algebra (eqs. 4, 5, 9):
// delays compose by multiplying with z^-k, i.e. shifting coefficients.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace roclk::signal {

class Polynomial {
 public:
  Polynomial() : coeffs_{0.0} {}
  explicit Polynomial(std::vector<double> coeffs);

  /// The monomial z^-k (k >= 0).
  [[nodiscard]] static Polynomial delay(std::size_t k);
  /// One, i.e. z^0.
  [[nodiscard]] static Polynomial one() { return delay(0); }

  /// Degree in z^-1 (index of last non-negligible coefficient).
  [[nodiscard]] std::size_t degree() const;
  [[nodiscard]] const std::vector<double>& coefficients() const {
    return coeffs_;
  }
  /// Coefficient of z^-k; zero beyond stored range.
  [[nodiscard]] double coefficient(std::size_t k) const;

  /// Evaluates a(z) at a complex point z (|z| > 0 required for negative
  /// powers; z = 0 is invalid for nonconstant polynomials).
  [[nodiscard]] std::complex<double> evaluate(std::complex<double> z) const;
  /// Evaluates at a real z.
  [[nodiscard]] double evaluate(double z) const;
  /// a(1): the DC value.
  [[nodiscard]] double at_one() const { return evaluate(1.0); }

  /// Coefficients of the equivalent polynomial in positive powers of z,
  /// i.e. z^degree * a(z), highest power first: for root finding.
  [[nodiscard]] std::vector<double> ascending_in_z() const;

  /// Removes trailing coefficients below `tol` in magnitude.
  Polynomial& trim(double tol = 1e-12);

  Polynomial operator+(const Polynomial& other) const;
  Polynomial operator*(const Polynomial& other) const;
  /// Multiplication by z^-k (delay by k samples).
  [[nodiscard]] Polynomial delayed(std::size_t k) const;

 private:
  std::vector<double> coeffs_;  // coeffs_[k] multiplies z^-k
};

}  // namespace roclk::signal
