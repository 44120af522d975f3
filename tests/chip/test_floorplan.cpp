#include "roclk/chip/floorplan.hpp"

#include <gtest/gtest.h>

#include "roclk/variation/sources.hpp"

namespace roclk::chip {
namespace {

using variation::DiePoint;

TEST(Floorplan, RandomPathsDeterministicAndBounded) {
  const auto fp = Floorplan::random_paths(20, 64.0, 77);
  ASSERT_EQ(fp.paths().size(), 20u);
  for (const auto& p : fp.paths()) {
    EXPECT_GE(p.location.x, 0.0);
    EXPECT_LE(p.location.x, 1.0);
    EXPECT_GE(p.depth_stages, 64.0 * 0.9 - 1e-9);
    EXPECT_LE(p.depth_stages, 64.0 * 1.1 + 1e-9);
  }
  const auto fp2 = Floorplan::random_paths(20, 64.0, 77);
  EXPECT_DOUBLE_EQ(fp.paths()[7].depth_stages, fp2.paths()[7].depth_stages);
}

TEST(Floorplan, SensorGridCoversDie) {
  Floorplan fp;
  fp.add_sensor_grid(3);
  EXPECT_EQ(fp.sensors().size(), 9u);
  // Centre sensor of a 3x3 grid sits in the middle.
  EXPECT_DOUBLE_EQ(fp.sensors()[4].location.x, 0.5);
  EXPECT_DOUBLE_EQ(fp.sensors()[4].location.y, 0.5);
}

TEST(Floorplan, PathDelayScalesWithVariation) {
  Floorplan fp;
  fp.add_path({{0.5, 0.5}, 100.0, "cp"});
  const auto v = variation::DieToDieProcess::with_offset(0.1);
  EXPECT_NEAR(fp.path_delay(fp.paths()[0], v, 0.0), 110.0, 1e-12);
}

TEST(Floorplan, WorstPathUnderHeterogeneousVariation) {
  Floorplan fp;
  fp.add_path({{0.1, 0.1}, 100.0, "cold"});
  fp.add_path({{0.9, 0.9}, 100.0, "hot"});
  variation::TemperatureHotspot hotspot{0.2, {0.9, 0.9}, 0.15, 0.0, 1.0};
  // After the thermal transient the hot path dominates.
  EXPECT_EQ(fp.worst_path_index(hotspot, 100.0), 1u);
  EXPECT_NEAR(fp.path_delay(fp.paths()[1], hotspot, 100.0), 120.0, 0.5);
}

TEST(Floorplan, NearestSensorEuclidean) {
  Floorplan fp;
  fp.add_sensor({{0.0, 0.0}, "sw"});
  fp.add_sensor({{1.0, 1.0}, "ne"});
  EXPECT_EQ(fp.nearest_sensor({0.1, 0.2}), 0u);
  EXPECT_EQ(fp.nearest_sensor({0.8, 0.7}), 1u);
}

TEST(Floorplan, BlindSpotZeroUnderHomogeneousVariation) {
  auto fp = Floorplan::random_paths(10, 64.0, 5);
  fp.add_sensor_grid(2);
  variation::VrmRipple vrm{0.1, 1000.0};
  EXPECT_NEAR(fp.worst_sensor_blind_spot(vrm, 250.0), 0.0, 1e-12);
}

TEST(Floorplan, BlindSpotPositiveWhenPathHotterThanSensor) {
  Floorplan fp;
  fp.add_path({{0.9, 0.9}, 64.0, "hot path"});
  fp.add_sensor({{0.1, 0.1}, "far sensor"});
  variation::TemperatureHotspot hotspot{0.2, {0.9, 0.9}, 0.1, 0.0, 1.0};
  EXPECT_GT(fp.worst_sensor_blind_spot(hotspot, 100.0), 0.1);
  // Adding a sensor next to the path closes the blind spot.
  fp.add_sensor({{0.88, 0.9}, "near sensor"});
  EXPECT_LT(fp.worst_sensor_blind_spot(hotspot, 100.0), 0.05);
}

TEST(Floorplan, EmptyPreconditionsThrow) {
  Floorplan fp;
  const auto v = variation::DieToDieProcess::with_offset(0.0);
  EXPECT_THROW((void)fp.worst_path_index(v, 0.0), std::logic_error);
  EXPECT_THROW((void)fp.nearest_sensor({0.5, 0.5}), std::logic_error);
  EXPECT_THROW(fp.add_path({{0.5, 0.5}, -1.0, "bad"}), std::logic_error);
}

}  // namespace
}  // namespace roclk::chip
