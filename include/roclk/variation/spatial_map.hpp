// Spatially correlated random fields over the die.
//
// Within-die (WID) process variation and thermal maps are smooth random
// functions of position.  SpatialMap implements seeded value-noise: random
// values on a lattice, smoothstep-interpolated, summed over octaves.  Every
// lattice value is a hash of its coordinates, so evaluation order does not
// matter and clones are exact.  The constructor tabulates the sites a point
// of the closed die [0, 1]^2 can read, so at() hashes nothing there.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "roclk/common/stream_key.hpp"
#include "roclk/variation/variation.hpp"

namespace roclk::variation {

class SpatialMap {
 public:
  /// `cells` lattice cells across the unit die; `octaves` layers of detail,
  /// each doubling frequency and halving amplitude; `stddev` approximate
  /// standard deviation of the resulting field.  Lattice values draw from
  /// key.at(octave).at(packed coordinate) — pure per-site substreams.
  /// Octave o's ((cells << o) + 1)^2 sites are computed here while the
  /// table stays within 4096 sites; finer octaves, and points on the
  /// x = 1 / y = 1 edges or off the die, hash their sites on demand, to
  /// the same values.
  SpatialMap(StreamKey key, double stddev, int cells = 4, int octaves = 2);

  /// Field value at a die position (zero-mean, ~stddev spread).
  [[nodiscard]] double at(DiePoint p) const;

  [[nodiscard]] double stddev() const { return stddev_; }

 private:
  [[nodiscard]] double octave_value(int octave, DiePoint p) const;

  StreamKey key_;
  double stddev_;
  int cells_;
  int octaves_;
  /// Octave o's sites, row-major from lattice_[octave_base_[o]]; one base
  /// per tabulated octave.
  std::vector<double> lattice_;
  std::vector<std::size_t> octave_base_;
};

/// Radial gaussian bump centred at `centre`: the canonical hotspot /
/// IR-drop-gradient spatial profile.
class GaussianBump {
 public:
  GaussianBump(DiePoint centre, double sigma, double peak);
  [[nodiscard]] double at(DiePoint p) const;

 private:
  DiePoint centre_;
  double sigma_;
  double peak_;
};

}  // namespace roclk::variation
