#include "roclk/signal/polynomial.hpp"

#include <gtest/gtest.h>

#include <complex>

namespace roclk::signal {
namespace {

TEST(Polynomial, DefaultIsZero) {
  Polynomial p;
  EXPECT_EQ(p.degree(), 0u);
  EXPECT_DOUBLE_EQ(p.evaluate(2.0), 0.0);
}

TEST(Polynomial, DegreeIgnoresTrailingZeros) {
  Polynomial p{{1.0, 0.0, 2.0, 0.0, 0.0}};
  EXPECT_EQ(p.degree(), 2u);
}

TEST(Polynomial, CoefficientBeyondRangeIsZero) {
  Polynomial p{{1.0, 2.0}};
  EXPECT_DOUBLE_EQ(p.coefficient(0), 1.0);
  EXPECT_DOUBLE_EQ(p.coefficient(1), 2.0);
  EXPECT_DOUBLE_EQ(p.coefficient(7), 0.0);
}

TEST(Polynomial, EvaluateInNegativePowers) {
  // p(z) = 1 + 2 z^-1 + 3 z^-2 at z = 2: 1 + 1 + 0.75 = 2.75.
  Polynomial p{{1.0, 2.0, 3.0}};
  EXPECT_DOUBLE_EQ(p.evaluate(2.0), 2.75);
  EXPECT_DOUBLE_EQ(p.at_one(), 6.0);
}

TEST(Polynomial, EvaluateComplexOnUnitCircle) {
  // p(z) = 1 - z^-1 at z = e^{j pi} = -1: 1 - (-1) = 2.
  Polynomial p{{1.0, -1.0}};
  const auto v = p.evaluate(std::complex<double>{-1.0, 0.0});
  EXPECT_NEAR(v.real(), 2.0, 1e-12);
  EXPECT_NEAR(v.imag(), 0.0, 1e-12);
}

TEST(Polynomial, DelayFactory) {
  const auto d3 = Polynomial::delay(3);
  EXPECT_EQ(d3.degree(), 3u);
  EXPECT_DOUBLE_EQ(d3.coefficient(3), 1.0);
  EXPECT_DOUBLE_EQ(d3.evaluate(2.0), 0.125);
  EXPECT_DOUBLE_EQ(Polynomial::delay(0).evaluate(5.0), 1.0);
}

TEST(Polynomial, AdditionAndSubtraction) {
  Polynomial a{{1.0, 2.0}};
  Polynomial b{{0.5, 0.0, 3.0}};
  const auto sum = a + b;
  EXPECT_DOUBLE_EQ(sum.coefficient(0), 1.5);
  EXPECT_DOUBLE_EQ(sum.coefficient(1), 2.0);
  EXPECT_DOUBLE_EQ(sum.coefficient(2), 3.0);
  // a - b is a + (-1) b.
  const auto diff = a + b * Polynomial{{-1.0}};
  EXPECT_DOUBLE_EQ(diff.coefficient(2), -3.0);
}

TEST(Polynomial, MultiplicationConvolves) {
  // (1 + z^-1)(1 - z^-1) = 1 - z^-2.
  Polynomial a{{1.0, 1.0}};
  Polynomial b{{1.0, -1.0}};
  const auto prod = a * b;
  EXPECT_DOUBLE_EQ(prod.coefficient(0), 1.0);
  EXPECT_DOUBLE_EQ(prod.coefficient(1), 0.0);
  EXPECT_DOUBLE_EQ(prod.coefficient(2), -1.0);
}

TEST(Polynomial, DelayedShiftsCoefficients) {
  Polynomial p{{1.0, 2.0}};
  const auto d = p.delayed(2);
  EXPECT_DOUBLE_EQ(d.coefficient(0), 0.0);
  EXPECT_DOUBLE_EQ(d.coefficient(2), 1.0);
  EXPECT_DOUBLE_EQ(d.coefficient(3), 2.0);
  // Multiplying by delay(2) is the same operation.
  EXPECT_EQ(d.coefficients(), (p * Polynomial::delay(2)).coefficients());
}

TEST(Polynomial, TrimRemovesSmallTrailing) {
  Polynomial p{{1.0, 2.0, 1e-15}};
  p.trim();
  EXPECT_EQ(p.degree(), 1u);
}

TEST(Polynomial, AscendingInZReversalForRoots) {
  // p = 1 - 0.5 z^-1 corresponds to z - 0.5 (root at z = 0.5):
  Polynomial p{{1.0, -0.5}};
  const auto coeffs = p.ascending_in_z();
  ASSERT_EQ(coeffs.size(), 2u);
  EXPECT_DOUBLE_EQ(coeffs[0], 1.0);
  EXPECT_DOUBLE_EQ(coeffs[1], -0.5);
}

}  // namespace
}  // namespace roclk::signal
