#include "roclk/variation/spatial_map.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "roclk/common/stats.hpp"

namespace roclk::variation {
namespace {

TEST(SpatialMap, DeterministicInSeed) {
  SpatialMap a{StreamKey{42}, 0.1};
  SpatialMap b{StreamKey{42}, 0.1};
  for (double x : {0.1, 0.3, 0.77}) {
    for (double y : {0.2, 0.9}) {
      EXPECT_DOUBLE_EQ(a.at({x, y}), b.at({x, y}));
    }
  }
}

TEST(SpatialMap, DifferentSeedsProduceDifferentFields) {
  SpatialMap a{StreamKey{1}, 0.1};
  SpatialMap b{StreamKey{2}, 0.1};
  int distinct = 0;
  for (int i = 0; i < 16; ++i) {
    const DiePoint p{(i % 4) * 0.25 + 0.1, (i / 4) * 0.25 + 0.1};
    if (std::fabs(a.at(p) - b.at(p)) > 1e-12) ++distinct;
  }
  EXPECT_GT(distinct, 12);
}

TEST(SpatialMap, ApproximatelyZeroMeanUnitScaledSpread) {
  SpatialMap map{StreamKey{7}, 0.05, 4, 2};
  RunningStats stats;
  for (int ix = 0; ix < 64; ++ix) {
    for (int iy = 0; iy < 64; ++iy) {
      stats.add(map.at({ix / 64.0, iy / 64.0}));
    }
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  // Interpolation shrinks variance a bit; just require the right scale.
  EXPECT_GT(stats.stddev(), 0.015);
  EXPECT_LT(stats.stddev(), 0.1);
}

TEST(SpatialMap, SpatiallySmooth) {
  // Neighbouring points must be far more similar than distant ones.
  SpatialMap map{StreamKey{11}, 1.0, 3, 1};
  double near_diff = 0.0;
  double far_diff = 0.0;
  int n = 0;
  for (int i = 0; i < 50; ++i) {
    const double x = 0.01 + 0.019 * i;
    near_diff += std::fabs(map.at({x, 0.5}) - map.at({x + 0.005, 0.5}));
    far_diff += std::fabs(map.at({x, 0.5}) - map.at({x, 0.02}));
    ++n;
  }
  EXPECT_LT(near_diff / n, 0.3 * (far_diff / n + 0.05));
}

TEST(SpatialMap, InvalidConfigRejected) {
  EXPECT_THROW((SpatialMap{StreamKey{1}, 0.1, 0, 1}), std::logic_error);
  EXPECT_THROW((SpatialMap{StreamKey{1}, 0.1, 4, 0}), std::logic_error);
}

TEST(GaussianBump, PeakAtCentreDecaysOutward) {
  GaussianBump bump{{0.5, 0.5}, 0.2, 3.0};
  EXPECT_DOUBLE_EQ(bump.at({0.5, 0.5}), 3.0);
  const double mid = bump.at({0.7, 0.5});
  const double far = bump.at({0.95, 0.5});
  EXPECT_GT(mid, far);
  EXPECT_GT(3.0, mid);
  EXPECT_NEAR(bump.at({0.5 + 0.2, 0.5}), 3.0 * std::exp(-0.5), 1e-12);
}

TEST(GaussianBump, ZeroSigmaRejected) {
  EXPECT_THROW((GaussianBump{{0.5, 0.5}, 0.0, 1.0}), std::logic_error);
}

}  // namespace
}  // namespace roclk::variation
