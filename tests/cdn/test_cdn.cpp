#include "roclk/cdn/cdn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace roclk::cdn {
namespace {

TEST(QuantizedTimeCdn, MFollowsPeriodRatio) {
  QuantizedTimeCdn cdn{64.0};
  cdn.reset(64.0);
  cdn.push(64.0);
  EXPECT_EQ(cdn.current_delay_samples(), 1u);  // 64/64 = 1
  QuantizedTimeCdn fast{256.0};
  fast.reset(64.0);
  fast.push(64.0);
  EXPECT_EQ(fast.current_delay_samples(), 4u);
  QuantizedTimeCdn zero{0.0};
  zero.reset(64.0);
  EXPECT_DOUBLE_EQ(zero.push(77.0), 77.0);
  EXPECT_EQ(zero.current_delay_samples(), 0u);
}

TEST(QuantizedTimeCdn, MRoundsToNearest) {
  QuantizedTimeCdn cdn{100.0};
  cdn.reset(64.0);
  cdn.push(64.0);  // 100/64 = 1.5625 -> 2
  EXPECT_EQ(cdn.current_delay_samples(), 2u);
  cdn.push(45.0);  // 100/45 = 2.22 -> 2
  EXPECT_EQ(cdn.current_delay_samples(), 2u);
  cdn.push(28.0);  // 100/28 = 3.57 -> 4
  EXPECT_EQ(cdn.current_delay_samples(), 4u);
}

TEST(QuantizedTimeCdn, DeliversPeriodGeneratedMCyclesAgo) {
  QuantizedTimeCdn cdn{128.0};  // M = 2 at nominal 64
  cdn.reset(64.0);
  EXPECT_DOUBLE_EQ(cdn.push(64.0), 64.0);  // looks back to pre-sim fill
  EXPECT_DOUBLE_EQ(cdn.push(70.0), 64.0);
  EXPECT_DOUBLE_EQ(cdn.push(72.0), 64.0);  // M~2: sees push #1
  EXPECT_DOUBLE_EQ(cdn.push(74.0), 70.0);
}

TEST(QuantizedTimeCdn, MReQuantisesAsPeriodChanges) {
  // The paper's M[n] = t_clk / T_clk[n]: a faster clock stretches the CDN
  // delay to more periods.
  QuantizedTimeCdn cdn{256.0};
  cdn.reset(64.0);
  cdn.push(64.0);
  EXPECT_EQ(cdn.current_delay_samples(), 4u);
  cdn.push(32.0);
  EXPECT_EQ(cdn.current_delay_samples(), 8u);
  cdn.push(128.0);
  EXPECT_EQ(cdn.current_delay_samples(), 2u);
}

TEST(QuantizedTimeCdn, PreSimulationHistoryIsInitialPeriod) {
  QuantizedTimeCdn cdn{640.0};  // M = 10 at 64
  cdn.reset(64.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(cdn.push(70.0), 64.0) << "push " << i;
  }
}

TEST(QuantizedTimeCdn, RejectsBadInputs) {
  EXPECT_THROW((QuantizedTimeCdn{-1.0}), std::logic_error);
  EXPECT_THROW((QuantizedTimeCdn{10.0, 1}), std::logic_error);
  QuantizedTimeCdn cdn{10.0};
  cdn.reset(64.0);
  EXPECT_THROW((void)cdn.push(0.0), std::logic_error);
}

TEST(QuantizedTimeCdn, RejectsBadExplicitRingDepth) {
  // The ring buffer is indexed with a power-of-two mask, so a depth that
  // is not a power of two (or cannot hold the history window) must be
  // refused at construction instead of aliasing reads at run time.
  EXPECT_THROW((QuantizedTimeCdn{10.0, 64, DelayQuantization::kRound, 100}),
               std::logic_error);
  EXPECT_THROW((QuantizedTimeCdn{10.0, 64, DelayQuantization::kRound, 32}),
               std::logic_error);
  EXPECT_NO_THROW(
      (QuantizedTimeCdn{10.0, 64, DelayQuantization::kRound, 128}));
}

TEST(QuantizedTimeCdn, ExplicitRingDepthMatchesAutoDepth) {
  // Oversizing the ring must not change delivered periods: the logical
  // window is `history`, the ring depth only affects storage.
  QuantizedTimeCdn auto_depth{640.0, 128};
  QuantizedTimeCdn oversized{640.0, 128, DelayQuantization::kRound, 1024};
  auto_depth.reset(64.0);
  oversized.reset(64.0);
  for (int i = 0; i < 200; ++i) {
    const double period = 64.0 + 0.5 * std::sin(0.1 * i);
    EXPECT_DOUBLE_EQ(auto_depth.push(period), oversized.push(period))
        << "push " << i;
  }
}

TEST(QuantizedTimeCdn, InterpolationMatchesRoundAtIntegerDelays) {
  // When t_clk / T is exactly integer the interpolating mode must behave
  // identically to the literal z^-M reading.
  QuantizedTimeCdn round_cdn{128.0, 4096, DelayQuantization::kRound};
  QuantizedTimeCdn interp_cdn{128.0, 4096,
                              DelayQuantization::kLinearInterp};
  round_cdn.reset(64.0);
  interp_cdn.reset(64.0);
  for (int i = 0; i < 40; ++i) {
    // Period stays 64 -> D = exactly 2 every cycle.
    EXPECT_DOUBLE_EQ(round_cdn.push(64.0), interp_cdn.push(64.0)) << i;
  }
}

TEST(QuantizedTimeCdn, InterpolationBlendsNeighbours) {
  // t_clk = 96, T = 64 -> D = 1.5: delivered is the midpoint of the
  // periods generated 1 and 2 cycles ago.
  QuantizedTimeCdn cdn{96.0, 4096, DelayQuantization::kLinearInterp};
  cdn.reset(64.0);
  cdn.push(64.0);   // history: [64(init)..., 64]
  cdn.push(100.0);  // D = 0.96 for this push
  const double delivered = cdn.push(64.0);  // D = 1.5: blend(100, 64)
  EXPECT_DOUBLE_EQ(delivered, 0.5 * 100.0 + 0.5 * 64.0);
}

TEST(QuantizedTimeCdn, FloorModeTruncates) {
  QuantizedTimeCdn cdn{100.0, 4096, DelayQuantization::kFloor};
  cdn.reset(64.0);
  cdn.push(64.0);  // D = 1.5625 -> floor 1: delivered is previous push...
  cdn.push(80.0);  // D = 1.25 -> floor 1: delivered = previous (64)
  EXPECT_DOUBLE_EQ(cdn.push(70.0), 80.0);  // D = 1.43 -> floor 1
}

TEST(QuantizedTimeCdn, SubPeriodDelaysDistinguishableOnlyWithInterp) {
  // The Fig. 9 columns: 0.75c and 1.0c collapse onto M = 1 under kRound
  // but differ under interpolation.
  auto run = [](double tclk, DelayQuantization q) {
    QuantizedTimeCdn cdn{tclk, 4096, q};
    cdn.reset(64.0);
    double out = 0.0;
    double period = 60.0;
    for (int i = 0; i < 16; ++i) {
      out = cdn.push(period);
      period += 1.0;  // ramp so look-backs differ
    }
    return out;
  };
  EXPECT_DOUBLE_EQ(run(48.0, DelayQuantization::kRound),
                   run(64.0, DelayQuantization::kRound));
  EXPECT_NE(run(48.0, DelayQuantization::kLinearInterp),
            run(64.0, DelayQuantization::kLinearInterp));
}

// Property: a constant input stream must pass through any CDN unchanged
// (steady state transparency), for a sweep of delays.
class CdnTransparency : public ::testing::TestWithParam<double> {};

TEST_P(CdnTransparency, ConstantStreamUnchanged) {
  QuantizedTimeCdn cdn{GetParam()};
  cdn.reset(64.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(cdn.push(64.0), 64.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Delays, CdnTransparency,
                         ::testing::Values(0.0, 6.4, 32.0, 64.0, 96.0, 128.0,
                                           320.0, 640.0));

// Regression for the look_back underflow: with zero pushes count_ == 0 and
// the old `m > count_ - 1` guard wrapped to SIZE_MAX, skipping the
// pre-simulation branch entirely.  Every look-back on a freshly reset CDN
// must read the initial period.
TEST(QuantizedTimeCdn, LookBackOnFreshlyResetCdnReadsInitialPeriod) {
  QuantizedTimeCdn cdn{64.0, /*history=*/16};
  cdn.reset(48.0);
  for (std::size_t m = 0; m < 20; ++m) {
    EXPECT_DOUBLE_EQ(cdn.peek_back(m), 48.0) << "m = " << m;
  }
  // A reset after traffic must also forget the pushed history.
  cdn.push(100.0);
  cdn.push(90.0);
  cdn.reset(52.0);
  for (std::size_t m = 0; m < 20; ++m) {
    EXPECT_DOUBLE_EQ(cdn.peek_back(m), 52.0) << "m = " << m;
  }
}

TEST(QuantizedTimeCdn, LookBackPastPushedCountReadsInitialPeriod) {
  QuantizedTimeCdn cdn{640.0, /*history=*/32};
  cdn.reset(64.0);
  // First push: D = 640/64 = 10 but only one period was ever generated, so
  // the delivered period is still the pre-simulation one.
  EXPECT_DOUBLE_EQ(cdn.push(64.0), 64.0);
  EXPECT_DOUBLE_EQ(cdn.peek_back(0), 64.0);
  EXPECT_DOUBLE_EQ(cdn.peek_back(1), 64.0);
}

// The ring is rounded up to a power of two internally (mask arithmetic in
// the hot loop); a non-power-of-two history must keep byte-identical
// look-back semantics at its logical bound.
TEST(QuantizedTimeCdn, NonPowerOfTwoHistoryKeepsLogicalWindow) {
  QuantizedTimeCdn cdn{0.0, /*history=*/6};
  cdn.reset(1.0);
  for (int i = 0; i < 12; ++i) {
    cdn.push(100.0 + i);  // delay 0: delivered == pushed
  }
  // The newest 6 entries (the logical history) are retained...
  for (std::size_t m = 0; m < 6; ++m) {
    EXPECT_DOUBLE_EQ(cdn.peek_back(m), 111.0 - static_cast<double>(m));
  }
  // ...and anything past the logical history reads the initial period even
  // though the physical ring (8 slots) still holds newer data.
  EXPECT_DOUBLE_EQ(cdn.peek_back(6), 1.0);
  EXPECT_DOUBLE_EQ(cdn.peek_back(7), 1.0);
}

}  // namespace
}  // namespace roclk::cdn
