#include "roclk/signal/transfer_function.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "roclk/signal/filter.hpp"

namespace roclk::signal {
namespace {

TEST(TransferFunction, ZeroDenominatorRejected) {
  EXPECT_THROW((TransferFunction{Polynomial::one(), Polynomial{{0.0, 0.0}}}),
               std::logic_error);
}

TEST(TransferFunction, DcGain) {
  // H = (1 + z^-1) / (1 - 0.5 z^-1): H(1) = 2 / 0.5 = 4.
  TransferFunction h{Polynomial{{1.0, 1.0}}, Polynomial{{1.0, -0.5}}};
  ASSERT_TRUE(h.dc_gain().has_value());
  EXPECT_DOUBLE_EQ(*h.dc_gain(), 4.0);
}

TEST(TransferFunction, DcGainUndefinedForIntegrator) {
  TransferFunction integrator{Polynomial::one(), Polynomial{{1.0, -1.0}}};
  EXPECT_FALSE(integrator.dc_gain().has_value());
}

TEST(TransferFunction, ImpulseResponseOfFirstOrder) {
  // H = 1/(1 - 0.5 z^-1): h[n] = 0.5^n.
  TransferFunction h{Polynomial::one(), Polynomial{{1.0, -0.5}}};
  const auto imp = h.impulse_response(6);
  for (std::size_t n = 0; n < imp.size(); ++n) {
    EXPECT_NEAR(imp[n], std::pow(0.5, static_cast<double>(n)), 1e-12);
  }
}

TEST(TransferFunction, ImpulseResponseMatchesLinearFilter) {
  TransferFunction h{Polynomial{{0.5, 0.2}}, Polynomial{{1.0, -0.3, 0.1}}};
  const auto imp = h.impulse_response(32);
  LinearFilter filter{h};
  for (std::size_t n = 0; n < imp.size(); ++n) {
    const double x = n == 0 ? 1.0 : 0.0;
    EXPECT_NEAR(filter.step(x), imp[n], 1e-12) << "sample " << n;
  }
}

TEST(PaperClosedLoop, MatchesEquations4And5) {
  // The loop algebra delta = p - lRO z^{-M-2} implies the identity
  // H_delta(z) = 1 - H_lRO(z) z^{-M-2}; verify it at an arbitrary point.
  const Polynomial n = Polynomial::delay(1);
  const Polynomial d{{4.0, -2.0, -1.0, -0.5, -0.25, -0.125, -0.125}};
  const std::size_t m = 3;
  const auto loop = make_paper_closed_loop(n, d, m);
  const std::complex<double> z{0.9, 0.3};
  const auto h_lro = loop.to_ro_length.evaluate(z);
  const auto h_delta = loop.to_error.evaluate(z);
  const auto zmm2 = std::pow(z, -static_cast<double>(m + 2));
  EXPECT_NEAR(std::abs(h_delta - (1.0 - h_lro * zmm2)), 0.0, 1e-10);
}

TEST(PaperClosedLoop, FinalValueOfErrorIsZeroWhenConstraintHolds) {
  // D(1) = 0 (type-1), N(1) != 0 -> H_delta(1) = 0/..(finite) = 0.
  const Polynomial n = Polynomial::delay(1);
  const Polynomial d{{4.0, -2.0, -1.0, -0.5, -0.25, -0.125, -0.125}};
  ASSERT_NEAR(d.at_one(), 0.0, 1e-12);
  const auto loop = make_paper_closed_loop(n, d, 1);
  const auto fv = loop.to_error.step_final_value();
  ASSERT_TRUE(fv.has_value());
  EXPECT_NEAR(*fv, 0.0, 1e-12);
  // And l_RO settles to a non-zero value: H_lRO(1) = N(1)/(0 + N(1)) = 1.
  const auto fv_lro = loop.to_ro_length.step_final_value();
  ASSERT_TRUE(fv_lro.has_value());
  EXPECT_NEAR(*fv_lro, 1.0, 1e-12);
}

TEST(PaperCombinedInput, ConstantHomogeneousVariationCancels) {
  // eq. 5: e enters as e[k-1] - e[k-M-2]; a constant e must vanish once the
  // delayed term is populated.
  std::vector<double> c(32, 0.0);
  std::vector<double> e(32, 5.0);
  std::vector<double> mu(32, 0.0);
  const std::size_t m = 2;
  const auto p = paper_combined_input(c, e, mu, m);
  // After k >= M+2 both taps are inside the sequence: contribution zero.
  for (std::size_t k = m + 2; k < p.size(); ++k) {
    EXPECT_NEAR(p[k], 0.0, 1e-12) << "k=" << k;
  }
  // During the fill-in window the RO-path tap is still outside: p = e[k-1].
  EXPECT_NEAR(p[1], 5.0, 1e-12);
}

TEST(PaperCombinedInput, MismatchEntersWithNegativeSignAndFullDelay) {
  std::vector<double> c(16, 0.0);
  std::vector<double> e(16, 0.0);
  std::vector<double> mu(16, 0.0);
  mu[0] = 3.0;  // impulse
  const std::size_t m = 1;
  const auto p = paper_combined_input(c, e, mu, m);
  // -mu z^{-M-2}: impulse appears at k = M+2 with sign -1.
  EXPECT_NEAR(p[m + 2], -3.0, 1e-12);
  for (std::size_t k = 0; k < p.size(); ++k) {
    if (k != m + 2) EXPECT_NEAR(p[k], 0.0, 1e-12);
  }
}

}  // namespace
}  // namespace roclk::signal
