// Die floorplan: critical paths and sensor sites on the die.
//
// The paper's architecture (its Fig. 3) disseminates TDC sensors over the
// clock domain so heterogeneous variations near any critical path are
// observed by a nearby sensor.  Floorplan models that geometry: a set of
// critical paths (position + logic depth in stages) and a grid of TDC
// sites; given a VariationSource it evaluates every path's instantaneous
// delay, the worst path, and the mismatch between a path and its nearest
// sensor — the quantity that ultimately bounds how well the closed loop
// can protect the path.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "roclk/common/stream_key.hpp"
#include "roclk/variation/variation.hpp"

namespace roclk::chip {

/// One candidate critical path.
struct CriticalPath {
  variation::DiePoint location{};
  double depth_stages{64.0};  // logic depth in elementary gate delays
  std::string name{};
};

/// Where a randomly placed path lies and how deep it is.
struct PathGeometry {
  variation::DiePoint location{};
  double depth_stages{0.0};
};

/// Path `index` of Floorplan::random_paths(n, nominal_depth, key): three
/// draws from key.at(index), in this order: x, y, then the depth's +/-10%
/// jitter around `nominal_depth`.  random_paths and the yield Monte-Carlo
/// both place paths through this one function.
[[nodiscard]] PathGeometry random_path_geometry(StreamKey key,
                                                std::size_t index,
                                                double nominal_depth);

/// One delay-sensor (TDC) site.
struct SensorSite {
  variation::DiePoint location{};
  std::string name{};
};

class Floorplan {
 public:
  Floorplan() = default;

  /// n paths uniformly placed at random; depth jitters +/-10% around
  /// `nominal_depth`.  Path i draws from key.at(i), so any prefix of the
  /// floorplan is stable as n grows.
  static Floorplan random_paths(std::size_t n, double nominal_depth,
                                StreamKey key);
  /// Raw-seed convenience: key = StreamKey{seed}.split("chip.floorplan").
  static Floorplan random_paths(std::size_t n, double nominal_depth,
                                std::uint64_t seed);

  Floorplan& add_path(CriticalPath path);
  Floorplan& add_sensor(SensorSite site);
  /// Adds a grid x grid array of sensors covering the die.
  Floorplan& add_sensor_grid(std::size_t grid);

  [[nodiscard]] std::span<const CriticalPath> paths() const { return paths_; }
  [[nodiscard]] std::span<const SensorSite> sensors() const {
    return sensors_;
  }

  /// Instantaneous delay of one path under `source` at time t (stages):
  /// depth * (1 + v(t, p)).
  [[nodiscard]] double path_delay(const CriticalPath& path,
                                  const variation::VariationSource& source,
                                  double t) const;

  /// Index of the currently slowest path.
  [[nodiscard]] std::size_t worst_path_index(
      const variation::VariationSource& source, double t) const;

  /// Index of the sensor nearest to a die position.
  [[nodiscard]] std::size_t nearest_sensor(variation::DiePoint p) const;

  /// The residual the closed loop cannot see: for each path, the difference
  /// between the fractional variation at the path and at its nearest
  /// sensor, at time t.  Returns the worst (most positive: path slower
  /// than its sensor believes) residual.
  [[nodiscard]] double worst_sensor_blind_spot(
      const variation::VariationSource& source, double t) const;

 private:
  std::vector<CriticalPath> paths_;
  std::vector<SensorSite> sensors_;
};

}  // namespace roclk::chip
