#include "roclk/analysis/analytic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "roclk/common/math.hpp"

namespace roclk::analysis {
namespace {

TEST(Analytic, Equation1PointwiseMismatch) {
  signal::SineWaveform nu{1.0, 100.0};
  // dnu(t) = nu(t) - nu(t - t_clk).
  EXPECT_NEAR(cdn_mismatch(nu, 30.0, 10.0), nu.at(30.0) - nu.at(20.0), 1e-12);
  EXPECT_NEAR(cdn_mismatch(nu, 0.0, 0.0), 0.0, 1e-12);
}

TEST(Analytic, Equation2KnownValues) {
  // 2 nu0 |sin(pi t/T)|.
  EXPECT_NEAR(harmonic_worst_mismatch(0.0, 100.0, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(harmonic_worst_mismatch(50.0, 100.0, 1.0), 2.0, 1e-12);
  EXPECT_NEAR(harmonic_worst_mismatch(100.0, 100.0, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(harmonic_worst_mismatch(25.0, 100.0, 1.0), std::sqrt(2.0),
              1e-12);
  // Amplitude scales linearly; sign of amplitude irrelevant.
  EXPECT_NEAR(harmonic_worst_mismatch(50.0, 100.0, -0.2), 0.4, 1e-12);
}

TEST(Analytic, Equation3PiecewiseShape) {
  // Rising branch: 2 nu0 t/T up to 1/2, then flat at nu0.
  EXPECT_NEAR(single_event_worst_mismatch(0.0, 100.0, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(single_event_worst_mismatch(25.0, 100.0, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(single_event_worst_mismatch(50.0, 100.0, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(single_event_worst_mismatch(75.0, 100.0, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(single_event_worst_mismatch(1000.0, 100.0, 1.0), 1.0, 1e-12);
}

TEST(Analytic, BenefitBoundaryAtSixthOfPeriod) {
  const double period = 600.0;
  // Inside the first benefit window, which ends at T/6 = 100.
  EXPECT_TRUE(harmonic_ro_beneficial(99.0, period));
  // Outside: the RO *adds* mismatch (2|sin| > 1).
  EXPECT_FALSE(harmonic_ro_beneficial(101.0, period));
  EXPECT_FALSE(harmonic_ro_beneficial(300.0, period));  // half period: worst
  // Islands around integer multiples of the period: (n - 1/6, n + 1/6) T.
  EXPECT_TRUE(harmonic_ro_beneficial(599.0, period));
  EXPECT_TRUE(harmonic_ro_beneficial(601.0, period));
  EXPECT_TRUE(harmonic_ro_beneficial(2.0 * period + 50.0, period));
  EXPECT_FALSE(harmonic_ro_beneficial(1.5 * period, period));
}

TEST(Analytic, NumericWorstMatchesEquation2) {
  // Property check of eq. 2 against direct grid search over eq. 1.
  signal::SineWaveform nu{0.2, 640.0};
  for (double t_clk : {10.0, 64.0, 160.0, 320.0, 500.0, 640.0}) {
    const double analytic = harmonic_worst_mismatch(t_clk, 640.0, 0.2);
    const double numeric = numeric_worst_mismatch(nu, 640.0, t_clk);
    EXPECT_NEAR(numeric, analytic, 2e-3) << "t_clk " << t_clk;
  }
}

TEST(Analytic, NumericWorstMatchesEquation3ForTriangle) {
  // For the triangular single event the worst mismatch over a window
  // containing the pulse must match eq. 3.
  const double duration = 200.0;
  signal::TrianglePulseWaveform pulse{0.3, 300.0, duration};
  for (double t_clk : {20.0, 60.0, 100.0, 150.0, 400.0}) {
    const double analytic = single_event_worst_mismatch(t_clk, duration, 0.3);
    // Search a window covering pulse +/- t_clk.
    double worst = 0.0;
    for (int i = 0; i <= 20000; ++i) {
      const double t = i * 0.05;
      worst = std::max(worst, std::fabs(cdn_mismatch(pulse, t, t_clk)));
    }
    EXPECT_NEAR(worst, analytic, 2e-3) << "t_clk " << t_clk;
  }
}

// Parameterised reproduction of the Fig. 2 axes: for every sampled
// t_clk/T_nu, harmonic mismatch is bounded by 2 nu0 and periodic in t_clk.
class Fig2Property : public ::testing::TestWithParam<double> {};

TEST_P(Fig2Property, HarmonicCurveBoundedAndPeriodic) {
  const double ratio = GetParam();
  const double period = 512.0;
  const double m = harmonic_worst_mismatch(ratio * period, period, 1.0);
  EXPECT_GE(m, 0.0);
  EXPECT_LE(m, 2.0 + 1e-12);
  const double m_shift =
      harmonic_worst_mismatch((ratio + 1.0) * period, period, 1.0);
  EXPECT_NEAR(m, m_shift, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ratios, Fig2Property,
                         ::testing::Values(0.05, 1.0 / 6.0, 0.25, 0.5, 0.75,
                                           0.9, 1.0, 1.4, 2.3, 3.5));

}  // namespace
}  // namespace roclk::analysis
