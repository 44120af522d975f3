#include "roclk/analysis/yield.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace roclk::analysis {
namespace {

YieldConfig small_config() {
  YieldConfig cfg;
  cfg.chips = 200;
  cfg.paths = 32;
  cfg.seed = 99;
  return cfg;
}

TEST(Yield, DeterministicInSeed) {
  const std::vector<double> margins{0.0, 5.0, 10.0};
  const auto a = yield_curve(margins, small_config());
  const auto b = yield_curve(margins, small_config());
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points[i].fixed_yield, b.points[i].fixed_yield);
    EXPECT_DOUBLE_EQ(a.points[i].adaptive_yield, b.points[i].adaptive_yield);
  }
  EXPECT_DOUBLE_EQ(a.mean_worst_path, b.mean_worst_path);
}

TEST(Yield, FixedYieldMonotoneInMargin) {
  const std::vector<double> margins{0.0, 2.0, 5.0, 10.0, 20.0, 40.0};
  const auto curve = yield_curve(margins, small_config());
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_GE(curve.points[i].fixed_yield,
              curve.points[i - 1].fixed_yield);
  }
  // Enough margin buys full yield.
  EXPECT_DOUBLE_EQ(curve.points.back().fixed_yield, 1.0);
  // Zero margin cannot cover the (positively skewed) worst-path spread.
  EXPECT_LT(curve.points.front().fixed_yield, 1.0);
}

TEST(Yield, AdaptiveYieldIsMarginIndependentAndHigh) {
  const std::vector<double> margins{0.0, 10.0, 30.0};
  const auto curve = yield_curve(margins, small_config());
  for (const auto& p : curve.points) {
    EXPECT_DOUBLE_EQ(p.adaptive_yield, curve.points[0].adaptive_yield);
  }
  // With a generous RO range the adaptive clock serves essentially all
  // chips without any design-time margin.
  EXPECT_GT(curve.points[0].adaptive_yield, 0.99);
  EXPECT_GT(curve.points[0].adaptive_yield,
            curve.points[0].fixed_yield);  // at margin 0
}

TEST(Yield, TightRoRangeLimitsAdaptiveYield) {
  YieldConfig cfg = small_config();
  cfg.ro_max_length = 66;  // barely above nominal: cannot stretch
  const std::vector<double> margins{0.0};
  const auto curve = yield_curve(margins, cfg);
  EXPECT_LT(curve.points[0].adaptive_yield, 1.0);
}

TEST(Yield, WorstPathStatisticsAreConsistent) {
  const auto curve = yield_curve(std::vector<double>{0.0}, small_config());
  EXPECT_GT(curve.mean_worst_path, 64.0);  // max of many paths skews up
  EXPECT_GT(curve.p99_worst_path, curve.mean_worst_path);
  EXPECT_GE(curve.mean_adaptive_period, 64.0);
  EXPECT_LT(curve.mean_adaptive_period, curve.p99_worst_path);
}

TEST(Yield, MoreVariabilityNeedsMoreMargin) {
  YieldConfig calm = small_config();
  calm.d2d_sigma = 0.02;
  calm.wid_sigma = 0.02;
  YieldConfig noisy = small_config();
  noisy.d2d_sigma = 0.08;
  noisy.wid_sigma = 0.06;
  const auto m_calm = compare_margins(0.99, calm);
  const auto m_noisy = compare_margins(0.99, noisy);
  EXPECT_GT(m_noisy.fixed_margin_needed, m_calm.fixed_margin_needed);
}

TEST(Yield, MorePathsNeedMoreMargin) {
  // Bowman's effect (paper refs [1][3]): more CP candidates push the
  // max-statistics tail out.
  YieldConfig few = small_config();
  few.paths = 4;
  YieldConfig many = small_config();
  many.paths = 256;
  const auto m_few = compare_margins(0.99, few);
  const auto m_many = compare_margins(0.99, many);
  EXPECT_GT(m_many.fixed_margin_needed, m_few.fixed_margin_needed);
}

TEST(Yield, AdaptiveSavesMarginOnAverage) {
  const auto cmp = compare_margins(0.99, small_config());
  // The per-chip adaptive period only pays each die's own slowdown; the
  // fixed margin pays the 99th percentile of the population.
  EXPECT_GT(cmp.fixed_margin_needed, cmp.adaptive_mean_extra_period);
  EXPECT_GT(cmp.margin_saved, 0.0);
}

TEST(Yield, SortedScanMatchesSingleMarginQueries) {
  // The one-sort + upper_bound prefix scan must count exactly what a
  // per-margin pass would: querying each margin on its own (its own sort,
  // its own scan) has to reproduce the batched sweep, regardless of the
  // sweep's ordering or duplicates.
  const std::vector<double> margins{20.0, 0.0, 7.5, 0.0, 40.0, 3.25};
  const auto batched = yield_curve(margins, small_config());
  ASSERT_EQ(batched.points.size(), margins.size());
  for (std::size_t i = 0; i < margins.size(); ++i) {
    const auto single =
        yield_curve(std::vector<double>{margins[i]}, small_config());
    EXPECT_DOUBLE_EQ(batched.points[i].fixed_yield,
                     single.points[0].fixed_yield)
        << "margin " << margins[i];
    EXPECT_DOUBLE_EQ(batched.points[i].margin_stages, margins[i]);
  }
  // The prefix count agrees with the reported percentile: at the p99
  // margin at least 99% of chips fall inside the prefix.
  const double p99_margin =
      batched.p99_worst_path - small_config().setpoint_c;
  const auto at_p99 =
      yield_curve(std::vector<double>{p99_margin}, small_config());
  EXPECT_GE(at_p99.points[0].fixed_yield, 0.99);
}

TEST(Yield, SharedSamplingKeepsEntryPointsConsistent) {
  // yield_curve and compare_margins sample the same worst-path set (a pure
  // function of the config), so statistics they both derive from it must
  // agree exactly.
  const YieldConfig cfg = small_config();
  const auto curve = yield_curve(std::vector<double>{0.0}, cfg);
  const auto cmp = compare_margins(0.99, cfg);

  // Both sides compute percentile(worst_paths, 0.99) on the same samples.
  EXPECT_DOUBLE_EQ(cmp.fixed_margin_needed,
                   std::max(0.0, curve.p99_worst_path - cfg.setpoint_c));

  // With the default generous RO range every chip is adaptive-served, so
  // the curve's mean adaptive period and the comparison's mean extra
  // period describe the same per-chip values, offset by c.
  ASSERT_DOUBLE_EQ(curve.points[0].adaptive_yield, 1.0);
  EXPECT_NEAR(curve.mean_adaptive_period - cfg.setpoint_c,
              cmp.adaptive_mean_extra_period, 1e-9);

  // And the margin compare_margins asks for is enough on the curve.
  const auto at_needed = yield_curve(
      std::vector<double>{cmp.fixed_margin_needed}, cfg);
  EXPECT_GE(at_needed.points[0].fixed_yield, 0.99);
}

TEST(Yield, Preconditions) {
  EXPECT_THROW((void)yield_curve(std::vector<double>{}, small_config()),
               std::logic_error);
  YieldConfig bad = small_config();
  bad.chips = 0;
  EXPECT_THROW((void)yield_curve(std::vector<double>{0.0}, bad),
               std::logic_error);
  EXPECT_THROW((void)compare_margins(0.0, small_config()), std::logic_error);
  EXPECT_THROW((void)compare_margins(1.5, small_config()), std::logic_error);
}

}  // namespace
}  // namespace roclk::analysis
