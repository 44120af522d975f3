#include "roclk/variation/spatial_map.hpp"

#include <cmath>

#include "roclk/common/math.hpp"
#include "roclk/common/status.hpp"
#include "roclk/common/stream_key.hpp"

namespace roclk::variation {

namespace {

/// Lattice values one map tabulates at most (32 KiB).
constexpr std::size_t kMaxTabulatedSites = 4096;

/// Stateless: every lattice site owns the substream
/// key.at(octave).at(packed coordinate), then maps draws to an
/// approximately standard-normal value via a 4-fold sum of uniforms
/// (Irwin-Hall, variance 4/12 each -> scaled).  `octave_key` is
/// key.at(octave).
double site_value(StreamKey octave_key, int ix, int iy) {
  const std::uint64_t coord =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(ix)) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(iy)) << 32);
  CounterRng rng{octave_key.at(coord)};
  double acc = 0.0;
  for (int i = 0; i < 4; ++i) acc += rng.uniform() - 0.5;
  // Sum of 4 centred uniforms has variance 4/12 = 1/3; scale to unit.
  return acc * std::sqrt(3.0);
}

}  // namespace

SpatialMap::SpatialMap(StreamKey key, double stddev, int cells, int octaves)
    : key_{key}, stddev_{stddev}, cells_{cells}, octaves_{octaves} {
  ROCLK_CHECK(cells >= 1, "need at least one lattice cell");
  ROCLK_CHECK(octaves >= 1, "need at least one octave");
  // A point in [0, 1)^2 reads sites 0 .. cells << o of octave o.  Tabulate
  // whole octaves, coarsest first, while they fit in the bound.
  for (int o = 0; o < octaves; ++o) {
    const int last = cells << o;
    const auto side = static_cast<std::size_t>(last) + 1;
    const std::size_t base = lattice_.size();
    if (base + side * side > kMaxTabulatedSites) break;
    octave_base_.push_back(base);
    lattice_.resize(base + side * side);
    const StreamKey octave_key = key_.at(static_cast<std::uint64_t>(o));
    double* site = lattice_.data() + base;
    for (int iy = 0; iy <= last; ++iy) {
      for (int ix = 0; ix <= last; ++ix) {
        *site++ = site_value(octave_key, ix, iy);
      }
    }
  }
}

double SpatialMap::octave_value(int octave, DiePoint p) const {
  const int cells = cells_ << octave;
  const double fx = p.x * cells;
  const double fy = p.y * cells;
  const int ix = static_cast<int>(std::floor(fx));
  const int iy = static_cast<int>(std::floor(fy));
  const double tx = smoothstep(fx - ix);
  const double ty = smoothstep(fy - iy);
  // The cell's four corners come from the table when it holds them (x or
  // y = 1.0 reads one site past it, and off-die points any site at all).
  const auto o = static_cast<std::size_t>(octave);
  if (o < octave_base_.size() && ix >= 0 && iy >= 0 && ix < cells &&
      iy < cells) {
    const auto side = static_cast<std::size_t>(cells) + 1;
    const double* v = lattice_.data() + octave_base_[o] +
                      static_cast<std::size_t>(iy) * side +
                      static_cast<std::size_t>(ix);
    return lerp(lerp(v[0], v[1], tx), lerp(v[side], v[side + 1], tx), ty);
  }
  const StreamKey octave_key = key_.at(static_cast<std::uint64_t>(octave));
  const double v00 = site_value(octave_key, ix, iy);
  const double v10 = site_value(octave_key, ix + 1, iy);
  const double v01 = site_value(octave_key, ix, iy + 1);
  const double v11 = site_value(octave_key, ix + 1, iy + 1);
  return lerp(lerp(v00, v10, tx), lerp(v01, v11, tx), ty);
}

double SpatialMap::at(DiePoint p) const {
  double acc = 0.0;
  double amp = 1.0;
  double norm = 0.0;
  for (int o = 0; o < octaves_; ++o) {
    acc += amp * octave_value(o, p);
    norm += amp * amp;
    amp *= 0.5;
  }
  // Normalize so the summed field keeps ~unit variance, then scale.
  return stddev_ * acc / std::sqrt(norm);
}

GaussianBump::GaussianBump(DiePoint centre, double sigma, double peak)
    : centre_{centre}, sigma_{sigma}, peak_{peak} {
  ROCLK_CHECK(sigma > 0.0, "bump sigma must be positive");
}

double GaussianBump::at(DiePoint p) const {
  const double dx = p.x - centre_.x;
  const double dy = p.y - centre_.y;
  return peak_ * std::exp(-(dx * dx + dy * dy) / (2.0 * sigma_ * sigma_));
}

}  // namespace roclk::variation
