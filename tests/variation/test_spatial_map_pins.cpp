// Bitwise pin of SpatialMap::at.
//
// The expected hash was recorded when every lattice value was hashed on
// demand.  It covers points inside the die, points on its x = 1 and y = 1
// edges (StageChain::position can return x = 1.0), and points outside the
// die (DiePoint is never range-checked), for several lattice sizes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "roclk/common/stream_key.hpp"
#include "roclk/variation/spatial_map.hpp"

namespace roclk::variation {
namespace {

/// FNV-1a over the bytes of every value, in order.
class BitHash {
 public:
  void add(double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (bits >> (8 * byte)) & 0xFFu;
      state_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_{0xCBF29CE484222325ULL};
};

std::vector<DiePoint> inside_points() {
  std::vector<DiePoint> points;
  for (int i = 0; i < 13; ++i) {
    for (int j = 0; j < 13; ++j) {
      points.push_back({(i + 0.5) / 13.0, (j + 0.5) / 13.0});
    }
  }
  // Exact lattice coordinates of every octave of a 4-cell map.
  for (int i = 0; i < 16; ++i) points.push_back({i / 16.0, (15 - i) / 16.0});
  points.push_back({0.0, 0.0});
  points.push_back({0.999999999, 0.999999999});
  return points;
}

std::vector<DiePoint> edge_points() {
  std::vector<DiePoint> points;
  for (int i = 0; i <= 8; ++i) {
    points.push_back({1.0, i / 8.0});
    points.push_back({i / 8.0, 1.0});
    points.push_back({1.0, (i + 0.37) / 9.0});
    points.push_back({(i + 0.37) / 9.0, 1.0});
  }
  return points;
}

std::vector<DiePoint> outside_points() {
  return {{-0.25, 0.5},  {0.5, -0.001}, {1.5, 0.5},       {0.5, 2.0},
          {-1.0, -1.0},  {3.75, -2.5},  {1.0000001, 0.3}, {0.3, 1.0000001},
          {-0.0, 0.5},   {-1e-9, 0.25}, {17.3, 42.9},     {-8.5, 0.75}};
}

struct MapShape {
  int cells;
  int octaves;
};

TEST(SpatialMapPins, AtHashInsideOnEdgesAndOutside) {
  constexpr MapShape kShapes[] = {{4, 2}, {1, 1}, {3, 2}, {4, 3},
                                  {8, 1}, {2, 4}, {5, 2}};
  const std::vector<DiePoint> sets[] = {inside_points(), edge_points(),
                                        outside_points()};
  std::uint64_t hashes[3] = {};
  for (int set = 0; set < 3; ++set) {
    BitHash hash;
    for (std::size_t s = 0; s < std::size(kShapes); ++s) {
      const StreamKey key = StreamKey{0x5A7A11ULL}.at(s);
      const SpatialMap keyed{key, 0.04 + 0.01 * static_cast<double>(s),
                             kShapes[s].cells, kShapes[s].octaves};
      // Keyed as the raw-seed constructor (since removed) derived it, so
      // the recorded hashes still hold.
      const SpatialMap seeded{
          StreamKey{1000 + s}.split("variation.spatial_map"), 0.05,
          kShapes[s].cells, kShapes[s].octaves};
      for (const DiePoint p : sets[set]) {
        hash.add(keyed.at(p));
        hash.add(seeded.at(p));
      }
    }
    hashes[set] = hash.value();
  }
  EXPECT_EQ(hashes[0], 12319900873861721248ULL) << "inside";
  EXPECT_EQ(hashes[1], 2310526302605222804ULL) << "x = 1 / y = 1 edges";
  EXPECT_EQ(hashes[2], 8858900833240025237ULL) << "outside the die";
}

}  // namespace
}  // namespace roclk::variation
