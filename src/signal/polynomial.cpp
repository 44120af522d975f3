#include "roclk/signal/polynomial.hpp"

#include <algorithm>
#include <cmath>

#include "roclk/common/status.hpp"

namespace roclk::signal {

Polynomial::Polynomial(std::vector<double> coeffs)
    : coeffs_{std::move(coeffs)} {
  if (coeffs_.empty()) coeffs_ = {0.0};
}

Polynomial Polynomial::delay(std::size_t k) {
  std::vector<double> c(k + 1, 0.0);
  c[k] = 1.0;
  return Polynomial{std::move(c)};
}

std::size_t Polynomial::degree() const {
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    if (std::fabs(coeffs_[i]) > 0.0) return i;
  }
  return 0;
}

double Polynomial::coefficient(std::size_t k) const {
  return k < coeffs_.size() ? coeffs_[k] : 0.0;
}

std::complex<double> Polynomial::evaluate(std::complex<double> z) const {
  ROCLK_CHECK(std::abs(z) > 0.0 || degree() == 0,
                "cannot evaluate negative powers at z = 0");
  // Horner in z^-1: a0 + z^-1 (a1 + z^-1 (a2 + ...)).
  const std::complex<double> zi =
      degree() == 0 ? std::complex<double>{0.0} : 1.0 / z;
  std::complex<double> acc{0.0, 0.0};
  for (std::size_t i = coeffs_.size(); i-- > 0;) {
    acc = acc * zi + coeffs_[i];
  }
  return acc;
}

double Polynomial::evaluate(double z) const {
  return evaluate(std::complex<double>{z, 0.0}).real();
}

std::vector<double> Polynomial::ascending_in_z() const {
  const std::size_t deg = degree();
  std::vector<double> out(deg + 1);
  // z^deg * a(z) = a0 z^deg + a1 z^(deg-1) + ... + a_deg; highest first.
  for (std::size_t i = 0; i <= deg; ++i) out[i] = coefficient(i);
  return out;
}

Polynomial& Polynomial::trim(double tol) {
  while (coeffs_.size() > 1 && std::fabs(coeffs_.back()) <= tol) {
    coeffs_.pop_back();
  }
  return *this;
}

Polynomial Polynomial::operator+(const Polynomial& other) const {
  std::vector<double> out(std::max(coeffs_.size(), other.coeffs_.size()), 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = coefficient(i) + other.coefficient(i);
  }
  return Polynomial{std::move(out)};
}

Polynomial Polynomial::operator*(const Polynomial& other) const {
  std::vector<double> out(coeffs_.size() + other.coeffs_.size() - 1, 0.0);
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    if (coeffs_[i] == 0.0) continue;
    for (std::size_t j = 0; j < other.coeffs_.size(); ++j) {
      out[i + j] += coeffs_[i] * other.coeffs_[j];
    }
  }
  return Polynomial{std::move(out)};
}

Polynomial Polynomial::delayed(std::size_t k) const {
  std::vector<double> out(coeffs_.size() + k, 0.0);
  std::copy(coeffs_.begin(), coeffs_.end(), out.begin() + static_cast<std::ptrdiff_t>(k));
  return Polynomial{std::move(out)};
}

}  // namespace roclk::signal
