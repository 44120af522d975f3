// Deterministic, fast pseudo-random number generation.
//
// Simulations must be exactly reproducible across runs and platforms, so we
// implement xoshiro256** (public-domain algorithm by Blackman & Vigna) from
// scratch rather than depending on the unspecified distributions of
// <random>.  All distribution mappings (uniform, normal, exponential) are
// implemented here with fixed algorithms.
#pragma once

#include <array>
#include <cstdint>

namespace roclk {

/// splitmix64: seed expander used to initialise xoshiro state from a single
/// 64-bit seed.  Also usable as a cheap stateless hash for value-noise.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of a value; used to hash lattice coordinates.
[[nodiscard]] constexpr std::uint64_t hash64(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed = 0x853C49E6748FEA9BULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Jump function: advances the state by 2^128 steps.  Used to derive
  /// independent streams for parallel sweeps from one master seed.
  constexpr void jump() {
    constexpr std::array<std::uint64_t, 4> kJump{
        0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
        0x39ABDC4529B1661CULL};
    std::array<std::uint64_t, 4> acc{};
    for (std::uint64_t word : kJump) {
      for (int b = 0; b < 64; ++b) {
        if (word & (std::uint64_t{1} << b)) {
          for (int i = 0; i < 4; ++i) acc[static_cast<std::size_t>(i)] ^= state_[static_cast<std::size_t>(i)];
        }
        (*this)();
      }
    }
    state_ = acc;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n) {
    // Lemire's unbiased bounded generation.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Marsaglia polar method (deterministic given seed).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_spare_{false};
  double spare_{0.0};

  friend class XoshiroTestPeer;
};

}  // namespace roclk
