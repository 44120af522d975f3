#include "roclk/variation/sources.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "roclk/variation/scenario.hpp"

namespace roclk::variation {
namespace {

constexpr DiePoint kCentre{0.5, 0.5};
constexpr DiePoint kCorner{0.05, 0.05};

TEST(DieToDieProcess, ConstantEverywhereForever) {
  DieToDieProcess d2d{0.05, 123};
  const double v = d2d.at(0.0, kCentre);
  EXPECT_DOUBLE_EQ(d2d.at(1e9, kCorner), v);
  EXPECT_DOUBLE_EQ(d2d.at(-50.0, {0.9, 0.1}), v);
}

TEST(DieToDieProcess, WithOffsetIsExact) {
  const auto d2d = DieToDieProcess::with_offset(0.07);
  EXPECT_DOUBLE_EQ(d2d.offset(), 0.07);
  EXPECT_DOUBLE_EQ(d2d.at(5.0, kCentre), 0.07);
}

TEST(WithinDieProcess, VariesInSpaceNotTime) {
  WithinDieProcess wid{0.05, 99};
  EXPECT_DOUBLE_EQ(wid.at(0.0, kCentre), wid.at(1e8, kCentre));
  EXPECT_NE(wid.at(0.0, kCentre), wid.at(0.0, kCorner));
}

TEST(RandomDeviceProcess, SpatiallyWhite) {
  RandomDeviceProcess rnd{0.01, 7, 256};
  // Two adjacent buckets should (almost surely) differ.
  EXPECT_NE(rnd.at(0.0, {0.1, 0.1}), rnd.at(0.0, {0.11, 0.1}));
  // Same bucket: identical.
  EXPECT_DOUBLE_EQ(rnd.at(0.0, {0.1001, 0.1}), rnd.at(5.0, {0.1002, 0.1}));
}

TEST(VrmRipple, HomogeneousSinusoid) {
  VrmRipple vrm{0.1, 1000.0};
  EXPECT_DOUBLE_EQ(vrm.at(123.0, kCentre), vrm.at(123.0, kCorner));
  EXPECT_NEAR(vrm.at(250.0, kCentre), 0.1, 1e-12);
  EXPECT_NEAR(vrm.at(0.0, kCentre), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(vrm.amplitude(), 0.1);
  EXPECT_DOUBLE_EQ(vrm.period(), 1000.0);
}

TEST(OffChipVoltageDrop, TriangularSingleEvent) {
  OffChipVoltageDrop droop{0.2, 100.0, 50.0};
  EXPECT_DOUBLE_EQ(droop.at(99.0, kCentre), 0.0);
  EXPECT_NEAR(droop.at(125.0, kCentre), 0.2, 1e-12);  // apex
  EXPECT_DOUBLE_EQ(droop.at(151.0, kCentre), 0.0);
  EXPECT_DOUBLE_EQ(droop.at(125.0, kCentre), droop.at(125.0, kCorner));
}

TEST(RoomTemperatureDrift, SlowAndHomogeneous) {
  RoomTemperatureDrift drift{0.03, 1e6};
  EXPECT_DOUBLE_EQ(drift.at(10.0, kCentre), drift.at(10.0, kCorner));
  EXPECT_NEAR(drift.at(2.5e5, kCentre), 0.03, 1e-12);
}

TEST(SimultaneousSwitchingNoise, HeterogeneousAndDynamic) {
  SimultaneousSwitchingNoise ssn{0.02, 64.0, 3};
  // Same hold slot, different locations: amplitudes differ via profile.
  EXPECT_NE(ssn.at(10.0, kCentre), ssn.at(10.0, kCorner));
  // Different hold slots: time variation.
  EXPECT_NE(ssn.at(10.0, kCentre), ssn.at(200.0, kCentre));
}

TEST(IrDrop, ActivityGatedSpatialGradient) {
  IrDrop ir{0.1, 1000.0, {0.8, 0.8}, 5};
  // Active half-cycle: full drop near the hot corner, less far away.
  const double active_hot = ir.at(100.0, {0.8, 0.8});
  const double active_cold = ir.at(100.0, {0.1, 0.1});
  EXPECT_GT(active_hot, active_cold);
  EXPECT_NEAR(active_hot, 0.1, 1e-9);
  // Idle half-cycle: no drop anywhere.
  EXPECT_NEAR(ir.at(600.0, {0.8, 0.8}), 0.0, 1e-12);
}

TEST(TemperatureHotspot, RisesWithThermalTimeConstant) {
  TemperatureHotspot hot{0.08, kCentre, 0.2, 1000.0, 5000.0};
  EXPECT_DOUBLE_EQ(hot.at(999.0, kCentre), 0.0);
  const double early = hot.at(1500.0, kCentre);
  const double late = hot.at(50000.0, kCentre);
  EXPECT_GT(early, 0.0);
  EXPECT_GT(late, early);
  EXPECT_NEAR(late, 0.08, 1e-3);  // saturated
  // Heterogeneous: weaker away from the hotspot.
  EXPECT_GT(hot.at(50000.0, kCentre), hot.at(50000.0, kCorner));
}

TEST(Aging, MonotonicSaturatingSlowdown) {
  Aging aging{0.05, 1e6, 11};
  EXPECT_DOUBLE_EQ(aging.at(0.0, kCentre), 0.0);
  double prev = 0.0;
  for (double t : {1e5, 3e5, 1e6, 3e6, 3e7}) {
    const double v = aging.at(t, kCentre);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_NEAR(prev, 0.05, 1e-3);
  // Spatially varying stress rate.
  EXPECT_NE(aging.at(3e5, kCentre), aging.at(3e5, kCorner));
}

TEST(DroopTrain, DeterministicAndBounded) {
  DroopTrain train{0.15, 5000.0, 200.0, 1000.0, 42};
  DroopTrain same{0.15, 5000.0, 200.0, 1000.0, 42};
  double peak_seen = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double t = i * 12.5;
    const double v = train.at(t, kCentre);
    ASSERT_DOUBLE_EQ(v, same.at(t, kCentre));
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 0.15 + 1e-12);
    peak_seen = std::max(peak_seen, v);
  }
  // With ~63% slot occupancy some event should have fired near peak.
  EXPECT_GT(peak_seen, 0.05);
}

TEST(DroopTrain, HomogeneousAcrossDie) {
  DroopTrain train{0.2, 4000.0, 100.0, 500.0, 7};
  for (double t : {100.0, 5000.0, 12345.0}) {
    EXPECT_DOUBLE_EQ(train.at(t, kCentre), train.at(t, kCorner));
  }
}

TEST(DroopTrain, EventsConfinedToTheirSlots) {
  DroopTrain train{0.2, 1000.0, 100.0, 400.0, 3};
  for (std::int64_t slot = 0; slot < 50; ++slot) {
    const auto event = train.event_in_slot(slot);
    if (!event.present) continue;
    EXPECT_GE(event.start, slot * 1000.0);
    EXPECT_LE(event.start + event.duration, (slot + 1) * 1000.0 + 1e-9);
    EXPECT_GE(event.duration, 100.0);
    EXPECT_LE(event.duration, 400.0);
    EXPECT_LE(event.amplitude, 0.2);
  }
}

TEST(DroopTrain, MostlyQuietBetweenEvents) {
  DroopTrain train{0.2, 10000.0, 100.0, 200.0, 9};
  int quiet = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (train.at(i * 10.0, kCentre) == 0.0) ++quiet;
  }
  // Events cover at most ~2% of the timeline at this spacing.
  EXPECT_GT(quiet, n * 9 / 10);
}

TEST(DroopTrain, RejectsBadConfig) {
  EXPECT_THROW((DroopTrain{0.1, 0.0, 1.0, 2.0, 1}), std::logic_error);
  EXPECT_THROW((DroopTrain{0.1, 100.0, 5.0, 2.0, 1}), std::logic_error);
  EXPECT_THROW((DroopTrain{0.1, 100.0, 10.0, 200.0, 1}), std::logic_error);
}

TEST(CompositeVariation, SumsAndClassifies) {
  CompositeVariation comp;
  comp.add(std::make_unique<DieToDieProcess>(
      DieToDieProcess::with_offset(0.05)));
  EXPECT_EQ(comp.temporal_class(), TemporalClass::kStatic);
  EXPECT_EQ(comp.spatial_class(), SpatialClass::kHomogeneous);
  EXPECT_DOUBLE_EQ(comp.at(0.0, kCentre), 0.05);

  comp.add(std::make_unique<VrmRipple>(0.1, 1000.0));
  EXPECT_EQ(comp.temporal_class(), TemporalClass::kDynamic);
  EXPECT_EQ(comp.spatial_class(), SpatialClass::kHomogeneous);
  EXPECT_NEAR(comp.at(250.0, kCentre), 0.15, 1e-12);

  comp.add(std::make_unique<WithinDieProcess>(0.02, 5));
  EXPECT_EQ(comp.spatial_class(), SpatialClass::kHeterogeneous);
  EXPECT_EQ(comp.size(), 3u);
  EXPECT_NE(comp.name().find("VRM"), std::string::npos);
}

TEST(CompositeVariation, DeepCopy) {
  CompositeVariation comp;
  comp.add(std::make_unique<VrmRipple>(0.1, 100.0));
  CompositeVariation copy{comp};
  EXPECT_DOUBLE_EQ(copy.at(25.0, kCentre), comp.at(25.0, kCentre));
  auto clone = comp.clone();
  EXPECT_DOUBLE_EQ(clone->at(25.0, kCentre), comp.at(25.0, kCentre));
}

TEST(Scenario, HarmonicHodvFactory) {
  auto hodv = make_harmonic_hodv(0.2, 1600.0);
  EXPECT_EQ(hodv->temporal_class(), TemporalClass::kDynamic);
  EXPECT_EQ(hodv->spatial_class(), SpatialClass::kHomogeneous);
  EXPECT_NEAR(hodv->at(400.0, kCentre), 0.2, 1e-12);
}

}  // namespace
}  // namespace roclk::variation
