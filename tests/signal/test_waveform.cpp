#include "roclk/signal/waveform.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "roclk/common/math.hpp"

namespace roclk::signal {
namespace {

TEST(Waveform, ZeroAndConstant) {
  ZeroWaveform zero;
  EXPECT_DOUBLE_EQ(zero.at(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(zero.at(1e9), 0.0);
  ConstantWaveform five{5.0};
  EXPECT_DOUBLE_EQ(five.at(0.0), 5.0);
  EXPECT_DOUBLE_EQ(five.at(123.0), 5.0);
}

TEST(Waveform, SineAmplitudePeriodPhase) {
  SineWaveform s{2.0, 100.0};
  EXPECT_NEAR(s.at(0.0), 0.0, 1e-12);
  EXPECT_NEAR(s.at(25.0), 2.0, 1e-12);
  EXPECT_NEAR(s.at(50.0), 0.0, 1e-12);
  EXPECT_NEAR(s.at(75.0), -2.0, 1e-12);
  EXPECT_NEAR(s.at(100.0), s.at(0.0), 1e-9);  // periodic

  SineWaveform shifted{1.0, 100.0, kPi / 2.0};
  EXPECT_NEAR(shifted.at(0.0), 1.0, 1e-12);
}

TEST(Waveform, SineRejectsNonPositivePeriod) {
  EXPECT_THROW((SineWaveform{1.0, 0.0}), std::logic_error);
}

TEST(Waveform, TrianglePulseShape) {
  TrianglePulseWaveform tri{4.0, 10.0, 8.0};  // peak 4 at t = 14
  EXPECT_DOUBLE_EQ(tri.at(9.9), 0.0);
  EXPECT_DOUBLE_EQ(tri.at(10.0), 0.0);
  EXPECT_NEAR(tri.at(12.0), 2.0, 1e-12);   // rising edge midpoint
  EXPECT_NEAR(tri.at(14.0), 4.0, 1e-12);   // apex
  EXPECT_NEAR(tri.at(16.0), 2.0, 1e-12);   // falling edge
  EXPECT_DOUBLE_EQ(tri.at(18.0), 0.0);
  EXPECT_DOUBLE_EQ(tri.at(100.0), 0.0);
}

TEST(Waveform, SquareDutyCycle) {
  SquareWaveform sq{1.0, 10.0};
  EXPECT_DOUBLE_EQ(sq.at(1.0), 1.0);
  EXPECT_DOUBLE_EQ(sq.at(6.0), -1.0);
  EXPECT_DOUBLE_EQ(sq.at(11.0), 1.0);
}

TEST(Waveform, HoldNoiseIsDeterministicAndPiecewiseConstant) {
  HoldNoiseWaveform noise{1.0, 10.0, StreamKey{42}};
  EXPECT_DOUBLE_EQ(noise.at(3.0), noise.at(7.0));    // same hold slot
  EXPECT_DOUBLE_EQ(noise.at(3.0), noise.at(3.0));    // repeatable
  HoldNoiseWaveform same{1.0, 10.0, StreamKey{42}};
  EXPECT_DOUBLE_EQ(noise.at(123.0), same.at(123.0));  // seed-deterministic
  HoldNoiseWaveform other{1.0, 10.0, StreamKey{43}};
  EXPECT_NE(noise.at(123.0), other.at(123.0));
}

TEST(Waveform, HoldNoiseRoughlyUnitVariance) {
  HoldNoiseWaveform noise{2.0, 1.0, StreamKey{7}};
  double acc = 0.0;
  double acc2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = noise.at(static_cast<double>(i) + 0.5);
    acc += v;
    acc2 += v * v;
  }
  const double mean = acc / n;
  const double var = acc2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Waveform, CloneIsIndependentPolymorphicCopy) {
  std::unique_ptr<Waveform> tri =
      std::make_unique<TrianglePulseWaveform>(1.0, 0.0, 2.0);
  auto copy = tri->clone();
  EXPECT_DOUBLE_EQ(copy->at(1.0), tri->at(1.0));
}

}  // namespace
}  // namespace roclk::signal
