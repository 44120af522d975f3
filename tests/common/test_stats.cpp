#include "roclk/common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace roclk {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.range(), 0.0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.range(), 7.0);
}

TEST(RunningStats, SampleVariance) {
  RunningStats s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);
}

TEST(BatchStats, MeanVarMinMax) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 4.0);
}

TEST(BatchStats, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  // Unsorted input is handled.
  const std::vector<double> shuffled{40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(shuffled, 0.5), 25.0);
}

TEST(BatchStats, PercentilePreconditions) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)percentile(std::vector<double>{}, 0.5),
               std::logic_error);
  EXPECT_THROW((void)percentile(xs, 1.5), std::logic_error);
}

}  // namespace
}  // namespace roclk
