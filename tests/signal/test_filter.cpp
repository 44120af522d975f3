#include "roclk/signal/filter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace roclk::signal {
namespace {

TEST(LinearFilter, FirImpulseResponseEqualsCoefficients) {
  LinearFilter fir{{1.0, 2.0, 3.0}, {1.0}};
  EXPECT_DOUBLE_EQ(fir.step(1.0), 1.0);
  EXPECT_DOUBLE_EQ(fir.step(0.0), 2.0);
  EXPECT_DOUBLE_EQ(fir.step(0.0), 3.0);
  EXPECT_DOUBLE_EQ(fir.step(0.0), 0.0);
}

TEST(LinearFilter, FirstOrderIirGeometricDecay) {
  LinearFilter iir{{1.0}, {1.0, -0.5}};
  EXPECT_DOUBLE_EQ(iir.step(1.0), 1.0);
  EXPECT_DOUBLE_EQ(iir.step(0.0), 0.5);
  EXPECT_DOUBLE_EQ(iir.step(0.0), 0.25);
}

TEST(LinearFilter, NormalizesLeadingDenominator) {
  // (2 + 0)/ (2 - z^-1) == 1 / (1 - 0.5 z^-1).
  LinearFilter a{{2.0}, {2.0, -1.0}};
  LinearFilter b{{1.0}, {1.0, -0.5}};
  for (int i = 0; i < 16; ++i) {
    const double x = (i == 0) ? 1.0 : 0.1 * i;
    EXPECT_NEAR(a.step(x), b.step(x), 1e-12);
  }
}

TEST(LinearFilter, ZeroLeadingDenominatorRejected) {
  EXPECT_THROW((LinearFilter{{1.0}, {0.0, 1.0}}), std::logic_error);
}

TEST(LinearFilter, DcGainReachedOnStep) {
  // H(1) = 0.2 / (1 - 0.8) = 1.
  LinearFilter f{{0.2}, {1.0, -0.8}};
  double y = 0.0;
  for (int i = 0; i < 400; ++i) y = f.step(1.0);
  EXPECT_NEAR(y, 1.0, 1e-9);
}

}  // namespace
}  // namespace roclk::signal
