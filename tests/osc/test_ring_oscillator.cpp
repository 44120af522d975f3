#include "roclk/osc/ring_oscillator.hpp"

#include <gtest/gtest.h>

#include "roclk/variation/sources.hpp"

namespace roclk::osc {
namespace {

TEST(RingOscillator, DefaultConfigValidAndAtInitialLength) {
  RingOscillator ro;
  EXPECT_EQ(ro.length(), 64);
  EXPECT_FALSE(ro.saturated());
}

TEST(RingOscillator, ValidateCatchesBadRanges) {
  RingOscillatorConfig bad;
  bad.min_length = 0;
  EXPECT_FALSE(RingOscillator::validate(bad).is_ok());

  RingOscillatorConfig swapped;
  swapped.min_length = 100;
  swapped.max_length = 10;
  EXPECT_FALSE(RingOscillator::validate(swapped).is_ok());

  RingOscillatorConfig outside;
  outside.initial_length = 4096;
  EXPECT_FALSE(RingOscillator::validate(outside).is_ok());

  RingOscillatorConfig zero_delay;
  zero_delay.stage_delay_seconds = 0.0;
  EXPECT_FALSE(RingOscillator::validate(zero_delay).is_ok());

  EXPECT_THROW(RingOscillator{bad}, std::logic_error);
}

TEST(RingOscillator, SetLengthClampsAndFlagsSaturation) {
  RingOscillatorConfig cfg;
  cfg.min_length = 32;
  cfg.max_length = 96;
  cfg.initial_length = 64;
  RingOscillator ro{cfg};
  EXPECT_EQ(ro.set_length(80), 80);
  EXPECT_FALSE(ro.saturated());
  EXPECT_EQ(ro.set_length(1000), 96);
  EXPECT_TRUE(ro.saturated());
  EXPECT_EQ(ro.set_length(1), 32);
  EXPECT_TRUE(ro.saturated());
  EXPECT_EQ(ro.set_length(64), 64);
  EXPECT_FALSE(ro.saturated());
}

TEST(RingOscillator, PhysicalPeriodIsMultiplicative) {
  RingOscillator ro;
  EXPECT_DOUBLE_EQ(ro.period_stages_physical(0.0), 64.0);
  EXPECT_DOUBLE_EQ(ro.period_stages_physical(0.25), 80.0);
  EXPECT_DOUBLE_EQ(ro.period_stages_physical(-0.25), 48.0);
}

TEST(RingOscillator, AdditivePeriodIsLinearised) {
  RingOscillator ro;
  EXPECT_DOUBLE_EQ(ro.period_stages_additive(0.0), 64.0);
  EXPECT_DOUBLE_EQ(ro.period_stages_additive(12.8), 76.8);
  EXPECT_DOUBLE_EQ(ro.period_stages_additive(-5.0), 59.0);
}

TEST(RingOscillator, LinearisationAgreesToFirstOrder) {
  // T_mult = l(1+v) vs T_add = l + c*v with l == c: identical.
  RingOscillator ro;
  const double v = 0.2;
  EXPECT_NEAR(ro.period_stages_physical(v),
              ro.period_stages_additive(64.0 * v), 1e-12);
}

TEST(RingOscillator, PeriodInSecondsUsesStageDelay) {
  RingOscillatorConfig cfg;
  cfg.stage_delay_seconds = 1e-9 / 64.0;  // c = 64 <-> 1 ns
  RingOscillator ro{cfg};
  EXPECT_NEAR(ro.period_seconds(0.0), 1e-9, 1e-18);
  EXPECT_NEAR(ro.period_seconds(0.2), 1.2e-9, 1e-18);
}

TEST(RingOscillator, ActsAsPointSensorOfItsOwnLocation) {
  RingOscillatorConfig cfg;
  cfg.location = {0.9, 0.9};
  RingOscillator ro{cfg};
  variation::TemperatureHotspot hotspot{0.2, {0.9, 0.9}, 0.1, 0.0, 1.0};
  EXPECT_GT(ro.local_variation(hotspot, 100.0), 0.15);
  RingOscillatorConfig far_cfg;
  far_cfg.location = {0.1, 0.1};
  RingOscillator far_ro{far_cfg};
  EXPECT_LT(far_ro.local_variation(hotspot, 100.0), 0.05);
}

}  // namespace
}  // namespace roclk::osc
