// Experiment E6 — paper Table I: sources of variability classified by
// temporal (static/dynamic) and spatial (homogeneous/heterogeneous)
// character.  Every cell's model is instantiated and *measured* on a chip
// grid; the printed classification must land each source in its cell.
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "roclk/common/table.hpp"
#include "roclk/variation/sources.hpp"
#include "roclk/variation/variation.hpp"

int main() {
  using namespace roclk;
  using namespace roclk::variation;
  namespace rb = roclk::bench;

  rb::print_header(
      "Table I — sources of variability classified by time and space",
      "Each model is sampled over a 2000-period window on an 8x8 die grid;\n"
      "'measured' columns are the empirical classification thresholds.");

  struct Entry {
    std::unique_ptr<VariationSource> source;
  };
  std::vector<std::unique_ptr<VariationSource>> sources;
  sources.push_back(std::make_unique<DieToDieProcess>(0.05, 1));
  sources.push_back(std::make_unique<VrmRipple>(0.05, 6400.0));
  sources.push_back(std::make_unique<RoomTemperatureDrift>(0.03, 50000.0));
  sources.push_back(
      std::make_unique<OffChipVoltageDrop>(0.2, 30000.0, 20000.0));
  sources.push_back(std::make_unique<WithinDieProcess>(0.04, 2));
  sources.push_back(std::make_unique<RandomDeviceProcess>(0.02, 3));
  sources.push_back(
      std::make_unique<SimultaneousSwitchingNoise>(0.02, 64.0, 4));
  sources.push_back(
      std::make_unique<IrDrop>(0.08, 9000.0, DiePoint{0.8, 0.2}, 5));
  sources.push_back(std::make_unique<TemperatureHotspot>(
      0.08, DiePoint{0.3, 0.7}, 0.2, 10000.0, 30000.0));
  sources.push_back(std::make_unique<Aging>(0.05, 60000.0, 6));

  TextTable table{{"source", "declared (time)", "declared (space)",
                   "measured (time)", "measured (space)",
                   "temporal stddev", "spatial stddev", "match"}};

  ClassificationOptions options;
  options.threshold = 1e-5;

  int matches = 0;
  for (const auto& source : sources) {
    const auto measured = classify(*source, options);
    const bool match = measured.temporal == source->temporal_class() &&
                       measured.spatial == source->spatial_class();
    matches += match;
    table.add_row({source->name(), to_string(source->temporal_class()),
                   to_string(source->spatial_class()),
                   to_string(measured.temporal), to_string(measured.spatial),
                   format_double(measured.temporal_stddev, 5),
                   format_double(measured.spatial_stddev, 5),
                   match ? "yes" : "NO"});
  }
  table.print(std::cout);
  rb::save_table(table, "table1_taxonomy");

  rb::shape_check(matches == static_cast<int>(sources.size()),
                  "every model lands in its declared Table I cell");

  std::printf(
      "\nTable I layout (paper):\n"
      "               | static                  | dynamic\n"
      "  homogeneous  | D2D process             | VRM ripple, room temp,\n"
      "               |                         | off-chip voltage drops\n"
      "  heterogeneous| WID process, RND device | SSN, IR drop, hotspots,\n"
      "               |                         | aging\n");
  return rb::shape_exit_code();
}
