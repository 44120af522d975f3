#include "roclk/analysis/estimation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "roclk/analysis/experiments.hpp"
#include "roclk/common/math.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/signal/spectrum.hpp"

namespace roclk::analysis {
namespace {

TEST(CrossCorrelation, PerfectAtTrueLag) {
  std::vector<double> x(256);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.13 * static_cast<double>(i)) +
           0.3 * std::sin(0.041 * static_cast<double>(i));
  }
  std::vector<double> y(x.size(), 0.0);
  const std::ptrdiff_t true_lag = 7;
  for (std::size_t i = 7; i < y.size(); ++i) y[i] = x[i - 7];
  // Near-perfect (y's zero-padded head shifts the global means slightly).
  EXPECT_NEAR(cross_correlation_at_lag(x, y, true_lag), 1.0, 1e-2);
  EXPECT_LT(cross_correlation_at_lag(x, y, 0), 0.9);
  EXPECT_EQ(best_lag(x, y, 0, 20), true_lag);
}

TEST(CrossCorrelation, MeanInvariance) {
  std::vector<double> x{1.0, 2.0, 3.0, 2.0, 1.0, 2.0, 3.0, 2.0};
  std::vector<double> shifted(x);
  for (double& v : shifted) v += 100.0;
  EXPECT_NEAR(cross_correlation_at_lag(x, shifted, 0), 1.0, 1e-12);
}

TEST(CrossCorrelation, Preconditions) {
  std::vector<double> x{1.0, 2.0};
  std::vector<double> y{1.0};
  EXPECT_THROW((void)cross_correlation_at_lag(x, y, 0), std::logic_error);
  EXPECT_THROW((void)best_lag(x, x, 3, 1), std::logic_error);
}

class LoopDelayRecovery : public ::testing::TestWithParam<int> {};

TEST_P(LoopDelayRecovery, FreeRoTraceRevealsEffectiveDelay) {
  // Ground truth: the free-RO loop's transport is M + 2 cycles with
  // M = t_clk / c.
  const int m = GetParam();
  const double c = 64.0;
  auto sim = make_system(SystemKind::kFreeRo, c, static_cast<double>(m) * c,
                         0.0, cdn::DelayQuantization::kRound);
  // Broadband-ish perturbation: two incommensurate tones.
  core::SimulationInputs inputs;
  const std::function<double(double)> e_of = [c](double t) {
    return 4.0 * std::sin(kTwoPi * t / (17.3 * c)) +
           2.5 * std::sin(kTwoPi * t / (41.7 * c));
  };
  inputs.e_ro = e_of;
  inputs.e_tdc = e_of;
  const auto trace = sim.run(inputs, 2000);

  std::vector<double> e(2000);
  for (std::size_t n = 0; n < e.size(); ++n) {
    e[n] = e_of(static_cast<double>(n) * c);
  }
  // Skip the fill-in transient.
  const std::size_t skip = 64;
  const auto err_full = trace.timing_error(c);
  const std::vector<double> err(err_full.begin() + skip, err_full.end());
  const std::vector<double> pert(e.begin() + skip, e.end());

  const auto estimate = estimate_loop_delay(err, pert);
  ASSERT_TRUE(estimate.is_ok()) << estimate.status().to_string();
  EXPECT_EQ(estimate.value().delay_cycles, m + 2);
  EXPECT_GT(estimate.value().correlation, 0.95);
}

INSTANTIATE_TEST_SUITE_P(CdnDelays, LoopDelayRecovery,
                         ::testing::Values(0, 1, 2, 4, 8));

TEST(LoopDelay, RejectsIncoherentTraces) {
  std::vector<double> noise(512);
  std::vector<double> tone(512);
  std::uint64_t s = 5;
  for (std::size_t i = 0; i < noise.size(); ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    noise[i] = static_cast<double>(s >> 40) / 1e6;
    tone[i] = std::sin(0.2 * static_cast<double>(i));
  }
  const auto estimate = estimate_loop_delay(noise, tone);
  EXPECT_FALSE(estimate.is_ok());
}

TEST(LoopDelay, RejectsShortTraces) {
  std::vector<double> x(16, 1.0);
  EXPECT_FALSE(estimate_loop_delay(x, x, 64).is_ok());
}

TEST(Attenuation, IirLoopAttenuatesSlowTonesEndToEnd) {
  const double c = 64.0;
  const double te = 200.0;
  auto sim = make_system(SystemKind::kIir, c, c);
  const auto trace =
      sim.run(core::SimulationInputs::harmonic(6.0, te * c), 8000);
  std::vector<double> pert(8000);
  for (std::size_t n = 0; n < pert.size(); ++n) {
    pert[n] = 6.0 * std::sin(kTwoPi * static_cast<double>(n) / te);
  }
  const auto err_full = trace.timing_error(c);
  const std::vector<double> err(err_full.begin() + 2000, err_full.end());
  const std::vector<double> p(pert.begin() + 2000, pert.end());
  // Residual tone amplitude over injected amplitude.
  EXPECT_LT(signal::tone_amplitude(err, 1.0 / te) /
                signal::tone_amplitude(p, 1.0 / te),
            0.35);
}

}  // namespace
}  // namespace roclk::analysis
