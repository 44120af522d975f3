// Statistical-timing oracle for the yield Monte-Carlo.
//
// Li & Schlichtmann model timing yield as the distribution of a maximum
// over path delays.  Without within-die variation the paths of one chip
// are independent given its die-to-die offset d2d, so the worst path of a
// chip with N paths of nominal depth D has the closed-form distribution
//
//   P(worst <= x) = E_d2d[ (E_U[ Phi((x / (D U) - 1 - d2d) / sigma_rnd) ])^N ]
//
// with U ~ U(0.9, 1.1) the per-path depth jitter.  Two 1-D quadratures
// give every fixed-clock yield (x = c + m) and the adaptive yield
// (x = ro_max_length), which the Monte-Carlo must match within its
// binomial error; a third, over x, gives the mean worst path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "roclk/analysis/yield.hpp"
#include "roclk/common/stats.hpp"
#include "roclk/common/stream_key.hpp"

namespace roclk::analysis {
namespace {

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

/// Composite Simpson rule over [lo, hi] with `intervals` (even) panels.
template <class F>
double simpson(F&& f, double lo, double hi, int intervals) {
  const double h = (hi - lo) / intervals;
  double sum = f(lo) + f(hi);
  for (int i = 1; i < intervals; ++i) {
    sum += (i % 2 == 1 ? 4.0 : 2.0) * f(lo + h * i);
  }
  return sum * h / 3.0;
}

/// P(worst <= x) for a config with wid_sigma == 0 and x >= 0.
double worst_path_cdf(const YieldConfig& cfg, double x) {
  const auto path_fits = [&](double d2d) {
    // E_U over the uniform depth jitter (density 1 / 0.2 on [0.9, 1.1]).
    const auto fits_at = [&](double u) {
      return normal_cdf((x / (cfg.nominal_depth * u) - 1.0 - d2d) /
                        cfg.rnd_sigma);
    };
    return simpson(fits_at, 0.9, 1.1, 128) / 0.2;
  };
  // E_d2d over N(0, d2d_sigma), truncated at 9 sigma.
  const auto integrand = [&](double z) {
    const double density =
        std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
    return density *
           std::pow(path_fits(z * cfg.d2d_sigma),
                    static_cast<double>(cfg.paths));
  };
  return simpson(integrand, -9.0, 9.0, 720);
}

/// Monte-Carlo estimate `measured` of probability `expected` from `chips`
/// independent chips lies within 5 binomial sigma (floored at 0.5 / chips,
/// so a probability of ~0 or ~1 still tolerates its rounding).
void expect_within_binomial(double measured, double expected,
                            std::size_t chips, const char* what,
                            double x) {
  const double n = static_cast<double>(chips);
  const double sigma =
      std::max(std::sqrt(expected * (1.0 - expected) / n), 0.5 / n);
  EXPECT_LE(std::fabs(measured - expected), 5.0 * sigma)
      << what << " at x = " << x << ": Monte-Carlo " << measured
      << " vs closed form " << expected << " ("
      << std::fabs(measured - expected) / sigma << " sigma)";
}

TEST(YieldOracle, ClosedFormIsADistributionFunction) {
  YieldConfig cfg;
  cfg.wid_sigma = 0.0;
  double previous = 0.0;
  for (double x = 40.0; x <= 100.0; x += 2.0) {
    const double p = worst_path_cdf(cfg, x);
    EXPECT_GE(p, previous - 1e-12) << x;
    previous = p;
  }
  EXPECT_LT(worst_path_cdf(cfg, 40.0), 1e-6);
  EXPECT_NEAR(worst_path_cdf(cfg, 200.0), 1.0, 1e-9);
}

/// Config k of the oracle corpus: no within-die variation, 1, 16 or 64
/// paths, and varied depths and sigmas.
YieldConfig oracle_config(std::size_t k) {
  constexpr std::size_t kPaths[] = {1, 16, 64};
  CounterRng rng{StreamKey{0x0A7C1E5ULL}.at(k)};
  YieldConfig cfg;
  cfg.chips = 4000;
  cfg.paths = kPaths[k % std::size(kPaths)];
  cfg.nominal_depth = 16.0 + 112.0 * rng.uniform();
  cfg.d2d_sigma = 0.01 + 0.07 * rng.uniform();
  cfg.wid_sigma = 0.0;
  cfg.rnd_sigma = 0.005 + 0.045 * rng.uniform();
  cfg.setpoint_c = cfg.nominal_depth;
  cfg.ro_max_length = static_cast<std::int64_t>(
      std::ceil(cfg.nominal_depth * (1.05 + 0.15 * rng.uniform())));
  cfg.seed = rng();
  return cfg;
}

TEST(YieldOracle, FixedAndAdaptiveYieldsMatchTheClosedForm) {
  constexpr std::size_t kConfigs = 12;
  std::size_t checked = 0;
  for (std::size_t k = 0; k < kConfigs; ++k) {
    const YieldConfig cfg = oracle_config(k);
    // Margins spanning the worst-path distribution's bulk and both tails.
    std::vector<double> margins;
    for (int i = 0; i <= 8; ++i) {
      margins.push_back(cfg.nominal_depth * (-0.1 + 0.05 * i));
    }
    const YieldCurve curve = yield_curve(margins, cfg);
    ASSERT_EQ(curve.points.size(), margins.size());
    for (const YieldPoint& point : curve.points) {
      const double x = cfg.setpoint_c + point.margin_stages;
      expect_within_binomial(point.fixed_yield, worst_path_cdf(cfg, x),
                             cfg.chips, "fixed_yield", x);
      ++checked;
    }
    const double x_adaptive = static_cast<double>(cfg.ro_max_length);
    expect_within_binomial(curve.points.front().adaptive_yield,
                           worst_path_cdf(cfg, x_adaptive), cfg.chips,
                           "adaptive_yield", x_adaptive);
    ++checked;
  }
  EXPECT_EQ(checked, kConfigs * 10);
}

TEST(YieldOracle, MeanWorstPathMatchesTheClosedForm) {
  // worst >= 0, so E[worst] = integral over x >= 0 of 1 - F(x).  Below
  // x_lo every path fits with probability 1 - 1e-19, so 1 - F = 1 there;
  // above x_hi no path is slower.
  for (std::size_t k = 0; k < 3; ++k) {
    const YieldConfig cfg = oracle_config(k);
    const double spread = 9.0 * (cfg.d2d_sigma + cfg.rnd_sigma);
    const double x_lo = 0.9 * cfg.nominal_depth * (1.0 - spread);
    const double x_hi = 1.1 * cfg.nominal_depth * (1.0 + spread);
    const double expected =
        x_lo + simpson([&](double x) { return 1.0 - worst_path_cdf(cfg, x); },
                       x_lo, x_hi, 96);

    const YieldCurve curve = yield_curve(std::vector<double>{0.0}, cfg);
    RunningStats worst;
    for (const double w : sample_worst_paths(cfg)) worst.add(w);
    const double standard_error =
        worst.stddev() / std::sqrt(static_cast<double>(cfg.chips));
    EXPECT_LE(std::fabs(curve.mean_worst_path - expected),
              5.0 * standard_error)
        << "config " << k << ": Monte-Carlo " << curve.mean_worst_path
        << " vs closed form " << expected << " ("
        << std::fabs(curve.mean_worst_path - expected) / standard_error
        << " standard errors)";
  }
}

}  // namespace
}  // namespace roclk::analysis
