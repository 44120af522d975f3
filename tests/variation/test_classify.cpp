// Empirical verification of Table I: every model must *measure* into the
// temporal/spatial cell the paper assigns it.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <memory>
#include <string>

#include "roclk/variation/sources.hpp"
#include "roclk/variation/variation.hpp"

namespace roclk::variation {
namespace {

enum class Cell {
  kD2D,
  kWid,
  kRnd,
  kVrmRipple,
  kRoomTemperature,
  kOffChipDroop,
  kSsn,
  kIrDrop,
  kHotspot,
  kAging,
};

const char* label(Cell cell) {
  switch (cell) {
    case Cell::kD2D: return "D2D";
    case Cell::kWid: return "WID";
    case Cell::kRnd: return "RND";
    case Cell::kVrmRipple: return "VRM ripple";
    case Cell::kRoomTemperature: return "room temperature";
    case Cell::kOffChipDroop: return "off-chip droop";
    case Cell::kSsn: return "SSN";
    case Cell::kIrDrop: return "IR drop";
    case Cell::kHotspot: return "hotspot";
    case Cell::kAging: return "aging";
  }
  return "?";
}

// One Table I cell.  Case has no PrintTo, so gtest lists it as its bytes
// and gtest_discover_tests keeps that dump in each ctest name
// (AllCells/TableOneCell.<Test>/<label>  # GetParam() = 24-byte object
// <...>).  It therefore holds plain values only: a pointer would move
// with the load address and rename the tests on every run, and a padding
// byte would print whatever the stack held.
struct Case {
  Cell cell;
  TemporalClass temporal;
  SpatialClass spatial;
  std::uint32_t seed;  // stochastic sources only; 0 for the others
  double amplitude;    // the first constructor argument of every source
};
static_assert(sizeof(Case) == 24, "Case must have no padding bytes");

std::unique_ptr<VariationSource> make_source(const Case& c) {
  const double a = c.amplitude;
  switch (c.cell) {
    case Cell::kD2D:
      return std::make_unique<DieToDieProcess>(a, std::uint64_t{c.seed});
    case Cell::kWid:
      return std::make_unique<WithinDieProcess>(a, std::uint64_t{c.seed});
    case Cell::kRnd:
      return std::make_unique<RandomDeviceProcess>(a, std::uint64_t{c.seed});
    case Cell::kVrmRipple:
      return std::make_unique<VrmRipple>(a, 6400.0);
    case Cell::kRoomTemperature:
      return std::make_unique<RoomTemperatureDrift>(a, 50000.0);
    case Cell::kOffChipDroop:
      return std::make_unique<OffChipVoltageDrop>(a, 30000.0, 20000.0);
    case Cell::kSsn:
      return std::make_unique<SimultaneousSwitchingNoise>(
          a, 64.0, std::uint64_t{c.seed});
    case Cell::kIrDrop:
      return std::make_unique<IrDrop>(a, 9000.0, DiePoint{0.8, 0.2},
                                      std::uint64_t{c.seed});
    case Cell::kHotspot:
      return std::make_unique<TemperatureHotspot>(a, DiePoint{0.3, 0.7}, 0.2,
                                                  10000.0, 30000.0);
    case Cell::kAging:
      return std::make_unique<Aging>(a, 60000.0, std::uint64_t{c.seed});
  }
  return nullptr;
}

class TableOneCell : public ::testing::TestWithParam<Case> {};

TEST_P(TableOneCell, DeclaredClassificationMatchesDesign) {
  const auto& c = GetParam();
  const auto source = make_source(c);
  EXPECT_EQ(source->temporal_class(), c.temporal) << label(c.cell);
  EXPECT_EQ(source->spatial_class(), c.spatial) << label(c.cell);
}

TEST_P(TableOneCell, MeasuredClassificationMatchesDeclared) {
  const auto& c = GetParam();
  const auto source = make_source(c);
  ClassificationOptions options;
  options.threshold = 1e-5;
  const auto measured = classify(*source, options);
  EXPECT_EQ(measured.temporal, c.temporal)
      << label(c.cell) << " temporal stddev " << measured.temporal_stddev;
  EXPECT_EQ(measured.spatial, c.spatial)
      << label(c.cell) << " spatial stddev " << measured.spatial_stddev;
}

TEST_P(TableOneCell, CloneIsBehaviourallyIdentical) {
  const auto& c = GetParam();
  const auto source = make_source(c);
  const auto clone = source->clone();
  for (double t : {0.0, 12345.0, 9.9e4}) {
    for (const DiePoint p : {DiePoint{0.1, 0.9}, DiePoint{0.66, 0.33}}) {
      EXPECT_DOUBLE_EQ(clone->at(t, p), source->at(t, p)) << label(c.cell);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, TableOneCell,
    ::testing::Values(
        Case{Cell::kD2D, TemporalClass::kStatic, SpatialClass::kHomogeneous,
             1, 0.05},
        Case{Cell::kWid, TemporalClass::kStatic,
             SpatialClass::kHeterogeneous, 2, 0.05},
        Case{Cell::kRnd, TemporalClass::kStatic,
             SpatialClass::kHeterogeneous, 3, 0.02},
        Case{Cell::kVrmRipple, TemporalClass::kDynamic,
             SpatialClass::kHomogeneous, 0, 0.1},
        Case{Cell::kRoomTemperature, TemporalClass::kDynamic,
             SpatialClass::kHomogeneous, 0, 0.05},
        Case{Cell::kOffChipDroop, TemporalClass::kDynamic,
             SpatialClass::kHomogeneous, 0, 0.2},
        Case{Cell::kSsn, TemporalClass::kDynamic,
             SpatialClass::kHeterogeneous, 4, 0.02},
        Case{Cell::kIrDrop, TemporalClass::kDynamic,
             SpatialClass::kHeterogeneous, 5, 0.1},
        Case{Cell::kHotspot, TemporalClass::kDynamic,
             SpatialClass::kHeterogeneous, 0, 0.08},
        Case{Cell::kAging, TemporalClass::kDynamic,
             SpatialClass::kHeterogeneous, 6, 0.05}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = label(info.param.cell);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(Classify, RespectsExplicitOptions) {
  DieToDieProcess d2d{0.0, 0};  // zero-sigma: exactly zero everywhere
  const auto m = classify(d2d);
  EXPECT_EQ(m.temporal, TemporalClass::kStatic);
  EXPECT_EQ(m.spatial, SpatialClass::kHomogeneous);
  EXPECT_DOUBLE_EQ(m.temporal_stddev, 0.0);
  EXPECT_DOUBLE_EQ(m.spatial_stddev, 0.0);
}

TEST(Classify, RejectsDegenerateOptions) {
  DieToDieProcess d2d{0.01, 0};
  ClassificationOptions bad;
  bad.time_samples = 1;
  EXPECT_THROW((void)classify(d2d, bad), std::logic_error);
  ClassificationOptions bad2;
  bad2.grid = 1;
  EXPECT_THROW((void)classify(d2d, bad2), std::logic_error);
}

}  // namespace
}  // namespace roclk::variation
