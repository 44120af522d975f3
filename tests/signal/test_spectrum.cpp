#include "roclk/signal/spectrum.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "roclk/common/math.hpp"

namespace roclk::signal {
namespace {

std::vector<double> make_tone(std::size_t n, double cycles_per_sample,
                              double amplitude, double phase = 0.0) {
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = amplitude *
            std::sin(kTwoPi * cycles_per_sample * static_cast<double>(i) +
                     phase);
  }
  return xs;
}

TEST(Goertzel, MatchesDftBin) {
  const std::size_t n = 50;
  const auto xs = make_tone(n, 5.0 / n, 2.0, 0.3);
  const auto spectrum = dft(xs);
  const auto g = goertzel(xs, 5.0 / static_cast<double>(n));
  EXPECT_NEAR(std::abs(g - spectrum[5]), 0.0, 1e-8);
}

TEST(ToneAmplitude, RecoversSinusoidAmplitude) {
  const std::size_t n = 200;
  const auto xs = make_tone(n, 10.0 / n, 3.5, 1.1);
  EXPECT_NEAR(tone_amplitude(xs, 10.0 / static_cast<double>(n)), 3.5, 1e-9);
}

TEST(ToneAmplitude, ZeroForQuietSignal) {
  std::vector<double> xs(128, 0.0);
  EXPECT_NEAR(tone_amplitude(xs, 0.1), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(tone_amplitude(std::vector<double>{}, 0.1), 0.0);
}

// Parameterised sweep: amplitude recovery across frequencies.
class ToneSweep : public ::testing::TestWithParam<int> {};

TEST_P(ToneSweep, AmplitudeRecoveredAtBin) {
  const std::size_t n = 256;
  const int bin = GetParam();
  const double f = static_cast<double>(bin) / static_cast<double>(n);
  const auto xs = make_tone(n, f, 1.25);
  EXPECT_NEAR(tone_amplitude(xs, f), 1.25, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Bins, ToneSweep,
                         ::testing::Values(2, 5, 11, 23, 47, 90, 120));

}  // namespace
}  // namespace roclk::signal
