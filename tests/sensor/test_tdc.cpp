#include "roclk/sensor/tdc.hpp"

#include <gtest/gtest.h>

#include "roclk/variation/sources.hpp"

namespace roclk::sensor {
namespace {

TEST(Tdc, AdditiveReadingIsPeriodMinusVariationPlusMismatch) {
  TdcConfig cfg;
  cfg.quantization = Quantization::kNone;
  cfg.mismatch_stages = 3.0;
  Tdc tdc{cfg};
  EXPECT_DOUBLE_EQ(tdc.measure_additive(64.0, 10.0), 57.0);
  EXPECT_DOUBLE_EQ(tdc.measure_additive(64.0, -5.0), 72.0);
}

TEST(Tdc, FloorQuantizationCountsCompletedStagesOnly) {
  TdcConfig cfg;
  cfg.quantization = Quantization::kFloor;
  Tdc tdc{cfg};
  EXPECT_DOUBLE_EQ(tdc.measure_additive(64.9, 0.0), 64.0);
  EXPECT_DOUBLE_EQ(tdc.measure_additive(64.0, 0.1), 63.0);
}

TEST(Tdc, NearestQuantization) {
  TdcConfig cfg;
  cfg.quantization = Quantization::kNearest;
  Tdc tdc{cfg};
  EXPECT_DOUBLE_EQ(tdc.measure_additive(64.4, 0.0), 64.0);
  EXPECT_DOUBLE_EQ(tdc.measure_additive(64.6, 0.0), 65.0);
}

TEST(Tdc, ReadingSaturatesAtChainLength) {
  TdcConfig cfg;
  cfg.max_reading = 100;
  Tdc tdc{cfg};
  EXPECT_DOUBLE_EQ(tdc.measure_additive(500.0, 0.0), 100.0);
  // And never goes negative.
  EXPECT_DOUBLE_EQ(tdc.measure_additive(10.0, 50.0), 0.0);
}

TEST(Tdc, ReadingIsClampedUnderEveryQuantizationMode) {
  // The chain physically cannot report below 0 or above max_reading, so
  // the [0, max_reading] clamp must apply regardless of how (or whether)
  // the reading is quantised.
  for (const Quantization q :
       {Quantization::kFloor, Quantization::kNearest, Quantization::kNone}) {
    TdcConfig cfg;
    cfg.quantization = q;
    cfg.max_reading = 100;
    Tdc tdc{cfg};
    EXPECT_DOUBLE_EQ(tdc.measure_additive(500.25, 0.0), 100.0)
        << "mode " << static_cast<int>(q);
    EXPECT_DOUBLE_EQ(tdc.measure_additive(10.5, 50.0), 0.0)
        << "mode " << static_cast<int>(q);
    // A fractional in-range reading survives kNone unquantised but still
    // clamped at the rails.
    if (q == Quantization::kNone) {
      EXPECT_DOUBLE_EQ(tdc.measure_additive(99.75, 0.0), 99.75);
      EXPECT_DOUBLE_EQ(tdc.measure_additive(100.25, 0.0), 100.0);
    }
  }
}

TEST(Tdc, ValidateRejectsBadConfigs) {
  TdcConfig bad;
  bad.max_reading = 0;
  EXPECT_FALSE(Tdc::validate(bad).is_ok());
  EXPECT_THROW(Tdc{bad}, std::logic_error);
}

TEST(Tdc, NonPositivePeriodRejected) {
  Tdc tdc;
  EXPECT_THROW((void)tdc.measure_additive(0.0, 0.0), std::logic_error);
}

}  // namespace
}  // namespace roclk::sensor
