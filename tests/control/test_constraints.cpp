#include "roclk/control/constraints.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "roclk/control/iir_control.hpp"
#include "roclk/signal/jury.hpp"

namespace roclk::control {
namespace {

using signal::Polynomial;

TEST(Constraints, PaperIirSatisfiesEquation8) {
  const auto [n, d] = iir_polynomials(paper_iir_config());
  const auto report = check_paper_constraints(n, d);
  EXPECT_TRUE(report.numerator_ok);
  EXPECT_TRUE(report.denominator_ok);
  EXPECT_TRUE(report.satisfied());
  EXPECT_DOUBLE_EQ(report.n_at_one, 1.0);
  EXPECT_NEAR(report.d_at_one, 0.0, 1e-12);
}

TEST(Constraints, ProportionalControllerViolatesEquation8) {
  // H = kp: N = kp, D = 1 -> D(1) != 0.
  const auto report =
      check_paper_constraints(Polynomial{{2.0}}, Polynomial{{1.0}});
  EXPECT_TRUE(report.numerator_ok);
  EXPECT_FALSE(report.denominator_ok);
  EXPECT_FALSE(report.satisfied());
}

TEST(Constraints, ZeroNumeratorAtDcViolates) {
  // N = 1 - z^-1 has N(1) = 0: the loop cannot hold a DC correction.
  const auto report = check_paper_constraints(Polynomial{{1.0, -1.0}},
                                              Polynomial{{1.0, -1.0}});
  EXPECT_FALSE(report.numerator_ok);
  EXPECT_TRUE(report.denominator_ok);
  EXPECT_FALSE(report.satisfied());
}

TEST(ClosedLoopCharacteristic, BuildsDPlusNDelayed) {
  // D = 1 - z^-1, N = z^-1, M = 0: D + N z^-2 = 1 - z^-1 + z^-3.
  const auto coeffs = closed_loop_characteristic(
      Polynomial::delay(1), Polynomial{{1.0, -1.0}}, 0);
  // Positive powers, highest first: z^3 - z^2 + 1.
  ASSERT_EQ(coeffs.size(), 4u);
  EXPECT_DOUBLE_EQ(coeffs[0], 1.0);
  EXPECT_DOUBLE_EQ(coeffs[1], -1.0);
  EXPECT_DOUBLE_EQ(coeffs[2], 0.0);
  EXPECT_DOUBLE_EQ(coeffs[3], 1.0);
}

TEST(ClosedLoopStability, PaperIirStableAtSmallM) {
  const auto [n, d] = iir_polynomials(paper_iir_config());
  for (std::size_t m : {0u, 1u, 2u}) {
    const auto s = closed_loop_stability(n, d, m);
    ASSERT_TRUE(s.is_ok()) << "M = " << m;
    EXPECT_TRUE(s.value().stable) << "M = " << m;
    EXPECT_LT(s.value().spectral_radius, 1.0);
  }
}

TEST(ClosedLoopStability, LongCdnDelayEventuallyDestabilises) {
  // The delay margin is finite: growing M must push the spectral radius
  // past 1 (the mechanism behind the Fig. 8 upper-plot degradation).  The
  // growth is not monotone cycle-to-cycle, so compare regimes, not steps.
  const auto [n, d] = iir_polynomials(paper_iir_config());
  const auto small = closed_loop_stability(n, d, 1);
  const auto large = closed_loop_stability(n, d, 64);
  ASSERT_TRUE(small.is_ok());
  ASSERT_TRUE(large.is_ok());
  EXPECT_LT(small.value().spectral_radius, 1.0);
  EXPECT_GT(large.value().spectral_radius, 1.0);
  EXPECT_FALSE(large.value().stable);
}

TEST(ClosedLoopStability, MaxStableCdnDelayExistsAndIsTight) {
  const auto [n, d] = iir_polynomials(paper_iir_config());
  const auto max_m = max_stable_cdn_delay(n, d, 128);
  ASSERT_TRUE(max_m.has_value());
  EXPECT_GE(*max_m, 1u);
  // One past the boundary must be unstable.
  const auto beyond = closed_loop_stability(n, d, *max_m + 1);
  ASSERT_TRUE(beyond.is_ok());
  EXPECT_FALSE(beyond.value().stable);
  // The boundary itself is stable.
  const auto at = closed_loop_stability(n, d, *max_m);
  ASSERT_TRUE(at.is_ok());
  EXPECT_TRUE(at.value().stable);
}

TEST(ClosedLoopStability, PureIntegratorLoopHasKnownBoundary) {
  // H = z^-1/(1 - z^-1) (TEAtime's linearised shell): characteristic
  // 1 - z^-1 + z^{-M-3}.  The Jury verdict and the explicit root
  // locations must agree on it.
  const auto n = Polynomial::delay(1);
  const Polynomial d{{1.0, -1.0}};
  const auto s0 = closed_loop_stability(n, d, 0);
  ASSERT_TRUE(s0.is_ok());
  const auto jury = signal::jury_test(closed_loop_characteristic(n, d, 0));
  ASSERT_TRUE(jury.is_ok());
  EXPECT_EQ(s0.value().stable, jury.value().stable);
}

/// Every tap set of the default IIR design space (analysis::
/// DesignSpaceOptions: 1 to 6 non-increasing taps 2^1 .. 2^-3) whose sum
/// is a power of two, so that eq. 10's k* = 1 / sum is one as well.
std::vector<IirConfig> eq10_valid_default_space() {
  std::vector<IirConfig> configs;
  std::vector<int> exponents;
  const auto visit = [&](const auto& self, int max_exponent) -> void {
    if (!exponents.empty()) {
      double sum = 0.0;
      for (const int e : exponents) sum += std::ldexp(1.0, e);
      int exponent = 0;
      if (std::frexp(sum, &exponent) == 0.5) {
        IirConfig config;
        config.taps.clear();
        for (const int e : exponents) config.taps.push_back(std::ldexp(1.0, e));
        config.k_star = 1.0 / sum;
        configs.push_back(config);
      }
    }
    if (exponents.size() == 6) return;
    for (int e = max_exponent; e >= -3; --e) {
      exponents.push_back(e);
      self(self, e);
      exponents.pop_back();
    }
  };
  visit(visit, 1);
  return configs;
}

TEST(ClosedLoopStability, JuryAgreesWithRootsAcrossM) {
  // max_stable_cdn_delay decides each M by the Jury test; the root finder
  // is its oracle.  The two verdicts must agree on every (tap set, M) of
  // the default design space with M <= 32 (43 sets, 1,419 pairs, 354 of
  // them stable, the paper's set among them), and so must the margins
  // both searches find.
  constexpr std::size_t kMaxM = 32;
  const std::vector<IirConfig> configs = eq10_valid_default_space();
  ASSERT_EQ(configs.size(), 43u);
  std::size_t stable_pairs = 0;
  for (const IirConfig& config : configs) {
    const auto [n, d] = iir_polynomials(config);
    std::optional<std::size_t> roots_margin;
    bool searching = true;
    for (std::size_t m = 0; m <= kMaxM; ++m) {
      const auto roots_verdict = closed_loop_stability(n, d, m);
      ASSERT_TRUE(roots_verdict.is_ok());
      const auto jury = signal::jury_test(closed_loop_characteristic(n, d, m));
      ASSERT_TRUE(jury.is_ok());
      const bool stable = roots_verdict.value().stable;
      EXPECT_EQ(stable, jury.value().stable)
          << "taps " << config.taps.size() << ", sum " << 1.0 / config.k_star
          << ", k1 " << config.taps.front() << ", M = " << m;
      stable_pairs += stable ? 1 : 0;
      if (stable && searching) {
        roots_margin = m;
      } else if (!stable && roots_margin.has_value()) {
        searching = false;
      }
    }
    EXPECT_EQ(max_stable_cdn_delay(n, d, kMaxM), roots_margin)
        << "taps " << config.taps.size() << ", sum " << 1.0 / config.k_star;
  }
  EXPECT_EQ(stable_pairs, 354u);
}

}  // namespace
}  // namespace roclk::control
