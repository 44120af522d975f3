#include "roclk/chip/floorplan.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "roclk/common/status.hpp"
#include "roclk/common/stream_key.hpp"

namespace roclk::chip {

PathGeometry random_path_geometry(StreamKey key, std::size_t index,
                                  double nominal_depth) {
  CounterRng rng{key.at(index)};
  PathGeometry path;
  path.location.x = rng.uniform();
  path.location.y = rng.uniform();
  path.depth_stages = nominal_depth * rng.uniform(0.9, 1.1);
  return path;
}

Floorplan Floorplan::random_paths(std::size_t n, double nominal_depth,
                                  StreamKey key) {
  ROCLK_CHECK(nominal_depth > 0.0, "path depth must be positive");
  Floorplan fp;
  for (std::size_t i = 0; i < n; ++i) {
    const PathGeometry geometry = random_path_geometry(key, i, nominal_depth);
    fp.add_path({geometry.location, geometry.depth_stages,
                 "cp" + std::to_string(i)});
  }
  return fp;
}

Floorplan Floorplan::random_paths(std::size_t n, double nominal_depth,
                                  std::uint64_t seed) {
  return random_paths(n, nominal_depth,
                      StreamKey{seed}.split("chip.floorplan"));
}

Floorplan& Floorplan::add_path(CriticalPath path) {
  ROCLK_CHECK(path.depth_stages > 0.0, "path depth must be positive");
  paths_.push_back(std::move(path));
  return *this;
}

Floorplan& Floorplan::add_sensor(SensorSite site) {
  sensors_.push_back(std::move(site));
  return *this;
}

Floorplan& Floorplan::add_sensor_grid(std::size_t grid) {
  ROCLK_CHECK(grid >= 1, "sensor grid must be at least 1x1");
  for (std::size_t ix = 0; ix < grid; ++ix) {
    for (std::size_t iy = 0; iy < grid; ++iy) {
      SensorSite site;
      site.location = {
          (static_cast<double>(ix) + 0.5) / static_cast<double>(grid),
          (static_cast<double>(iy) + 0.5) / static_cast<double>(grid)};
      std::ostringstream os;
      os << "tdc" << ix << "_" << iy;
      site.name = os.str();
      add_sensor(std::move(site));
    }
  }
  return *this;
}

double Floorplan::path_delay(const CriticalPath& path,
                             const variation::VariationSource& source,
                             double t) const {
  return path.depth_stages * (1.0 + source.at(t, path.location));
}

std::size_t Floorplan::worst_path_index(
    const variation::VariationSource& source, double t) const {
  ROCLK_CHECK(!paths_.empty(), "floorplan has no paths");
  std::size_t best = 0;
  double worst = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const double d = path_delay(paths_[i], source, t);
    if (d > worst) {
      worst = d;
      best = i;
    }
  }
  return best;
}

std::size_t Floorplan::nearest_sensor(variation::DiePoint p) const {
  ROCLK_CHECK(!sensors_.empty(), "floorplan has no sensors");
  std::size_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < sensors_.size(); ++i) {
    const double dx = sensors_[i].location.x - p.x;
    const double dy = sensors_[i].location.y - p.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  return best;
}

double Floorplan::worst_sensor_blind_spot(
    const variation::VariationSource& source, double t) const {
  ROCLK_CHECK(!paths_.empty() && !sensors_.empty(),
                "need paths and sensors");
  double worst = -std::numeric_limits<double>::infinity();
  for (const auto& path : paths_) {
    const auto sensor = sensors_[nearest_sensor(path.location)];
    const double residual =
        source.at(t, path.location) - source.at(t, sensor.location);
    worst = std::max(worst, residual);
  }
  return worst;
}

}  // namespace roclk::chip
