#include "roclk/sensor/thermometer.hpp"

#include <gtest/gtest.h>

#include "roclk/variation/sources.hpp"

namespace roclk::sensor {
namespace {

TEST(ThermometerCode, IdealCodeIsClean) {
  const auto code = ThermometerCode::ideal(5, 8);
  EXPECT_TRUE(code.is_clean());
  EXPECT_EQ(code.decode_priority(), 5u);
  EXPECT_EQ(code.decode_ones_count(), 5u);
  EXPECT_TRUE(code.bit(4));
  EXPECT_FALSE(code.bit(5));
}

TEST(ThermometerCode, EdgeCases) {
  const auto empty = ThermometerCode::ideal(0, 4);
  EXPECT_EQ(empty.decode_priority(), 0u);
  const auto full = ThermometerCode::ideal(4, 4);
  EXPECT_EQ(full.decode_priority(), 4u);
  EXPECT_EQ(full.decode_ones_count(), 4u);
  EXPECT_THROW((void)ThermometerCode::ideal(5, 4), std::logic_error);
}

TEST(ThermometerCode, BubbleBreaksPriorityNotOnesCount) {
  // 1 1 0 1 1 0 0 0: a bubble at index 2 (true boundary was 5).
  ThermometerCode code{{true, true, false, true, true, false, false, false}};
  EXPECT_FALSE(code.is_clean());
  EXPECT_EQ(code.decode_priority(), 2u);     // badly wrong
  EXPECT_EQ(code.decode_ones_count(), 4u);   // off by one only
}

TEST(ThermometerCode, BalancedBubblesCancelInOnesCount) {
  // One 1 lost before the boundary, one gained after: count unchanged.
  ThermometerCode code{{true, false, true, true, true, false, true, false}};
  EXPECT_EQ(code.decode_ones_count(), 5u);
}

TEST(ThermometerCode, BoundaryNoiseOnlyTouchesBoundary) {
  auto code = ThermometerCode::ideal(10, 20);
  CounterRng rng{StreamKey{7}};
  code.inject_boundary_noise(rng, 1.0, 2);  // flip everything in radius
  // Bits far from the boundary are untouched.
  for (std::size_t i = 0; i < 8; ++i) EXPECT_TRUE(code.bit(i)) << i;
  for (std::size_t i = 12; i < 20; ++i) EXPECT_FALSE(code.bit(i)) << i;
  // Something near the boundary flipped.
  EXPECT_FALSE(code.is_clean());
}

TEST(ThermometerCode, ZeroProbabilityNoiseIsNoop) {
  auto code = ThermometerCode::ideal(10, 20);
  CounterRng rng{StreamKey{7}};
  code.inject_boundary_noise(rng, 0.0);
  EXPECT_TRUE(code.is_clean());
  EXPECT_EQ(code.decode_priority(), 10u);
}

TEST(DetailedTdc, CleanMeasurementMatchesBehaviouralTdc) {
  DetailedTdcConfig cfg;
  DetailedTdc tdc{cfg};
  const auto quiet = variation::DieToDieProcess::with_offset(0.0);
  EXPECT_EQ(tdc.measure(64.0, quiet, 0.0), 64);
  EXPECT_TRUE(tdc.last_code().is_clean());

  const auto slow = variation::DieToDieProcess::with_offset(0.25);
  EXPECT_EQ(tdc.measure(64.0, slow, 0.0), 51);  // 64/1.25
}

TEST(DetailedTdc, SaturatesAtChainLength) {
  DetailedTdcConfig cfg;
  cfg.chain.stages = 65;
  DetailedTdc tdc{cfg};
  const auto quiet = variation::DieToDieProcess::with_offset(0.0);
  EXPECT_EQ(tdc.measure(500.0, quiet, 0.0), 65);
}

TEST(DetailedTdc, OnesCountDecoderShrugsOffMetastability) {
  // With aggressive metastability the priority encoder's reading scatters
  // far below truth; the ones-counter stays within the bubble radius.
  const auto quiet = variation::DieToDieProcess::with_offset(0.0);

  DetailedTdcConfig ones_cfg;
  ones_cfg.decoder = TdcDecoder::kOnesCount;
  ones_cfg.metastability_p = 0.4;
  DetailedTdc ones{ones_cfg};

  DetailedTdcConfig prio_cfg = ones_cfg;
  prio_cfg.decoder = TdcDecoder::kPriorityEncoder;
  DetailedTdc prio{prio_cfg};

  std::int64_t ones_worst = 0;
  std::int64_t prio_worst = 0;
  for (int i = 0; i < 200; ++i) {
    ones_worst = std::max<std::int64_t>(
        ones_worst, std::abs(ones.measure(64.0, quiet, 0.0) - 64));
    prio_worst = std::max<std::int64_t>(
        prio_worst, std::abs(prio.measure(64.0, quiet, 0.0) - 64));
  }
  EXPECT_LE(ones_worst, 2);   // bounded by the flip radius
  EXPECT_GE(prio_worst, 2);   // first-zero can jump to the bubble
  EXPECT_GE(prio_worst, ones_worst);
}

TEST(DetailedTdc, HotspotOverChainLowersReading) {
  DetailedTdcConfig cfg;
  cfg.chain.start = {0.8, 0.8};
  cfg.chain.end = {0.9, 0.9};
  DetailedTdc tdc{cfg};
  variation::TemperatureHotspot hotspot{0.2, {0.85, 0.85}, 0.1, 0.0, 1.0};
  EXPECT_LT(tdc.measure(64.0, hotspot, 100.0), 58);
}

TEST(DetailedTdc, RejectsBadConfig) {
  DetailedTdcConfig bad;
  bad.metastability_p = 1.5;
  EXPECT_THROW(DetailedTdc{bad}, std::logic_error);
  DetailedTdc ok;
  const auto quiet = variation::DieToDieProcess::with_offset(0.0);
  EXPECT_THROW((void)ok.measure(0.0, quiet, 0.0), std::logic_error);
}

}  // namespace
}  // namespace roclk::sensor
