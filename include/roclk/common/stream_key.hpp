// Splittable, counter-based pseudo-random streams.
//
// A sequential generator is reproducible only *serially*: draw k depends
// on having made draws 0..k-1 on the same object, so a Monte-Carlo that
// threads one generator through its trials cannot be split across
// threads, shards or processes without changing its results.  Ad-hoc
// xor-tag seeding (`hash64(seed ^ 0x11)`) is collision-prone across call
// sites and leaves the derivation hierarchy implicit.
//
// This header replaces both idioms:
//
//  * StreamKey — a hierarchical stream *identity*.  A key is a 64-bit hash
//    state derived from a master seed by an ordered chain of named
//    `split(tag)` and indexed `at(index)` steps, e.g.
//
//        StreamKey{master}.split("analysis.yield").at(chip).split("wid")
//
//    Each derivation step is salted by its kind (root / named split /
//    integer split / index), so `k.split(5)`, `k.at(5)` and the raw state
//    can never collide, and tags registered at different call sites are
//    independent by construction instead of by xor-constant discipline.
//
//  * CounterRng — a generator whose draw i is a pure stateless hash of
//    (key, i): the splitmix64 output function over state
//    key + (i+1) * golden-gamma.  No draw depends on any other draw, so
//    any shard of a sweep regenerates exactly its own substream from the
//    key alone — the property that makes a Monte-Carlo bit-identical at
//    1 thread, N threads, or N processes (DESIGN.md §13).
//
// Distribution mappings (uniform / uniform_int / normal / exponential) are
// draw-stable: the values depend only on the key and on how many draws the
// *instance* has made — there is no cache shared across instances or
// splits, so two CounterRngs built from equal keys always agree.
#pragma once

#include <cstdint>
#include <string_view>

#include "roclk/common/rng.hpp"

namespace roclk {

namespace detail {

/// One extra splitmix64-style finalisation round over two mixed words.
/// Distinct `salt` values keep the derivation kinds in disjoint families.
[[nodiscard]] constexpr std::uint64_t key_mix(std::uint64_t state,
                                              std::uint64_t salt,
                                              std::uint64_t word) {
  std::uint64_t s = state ^ salt;
  s += (word + 1) * 0x9E3779B97F4A7C15ULL;
  return hash64(hash64(s) ^ word);
}

/// FNV-1a over the tag name; stable across platforms and constexpr so tag
/// registries can live in headers.
[[nodiscard]] constexpr std::uint64_t name_hash(std::string_view name) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace detail

/// Identity of one pseudo-random stream: a 64-bit state plus the ordered
/// derivation algebra that produced it.  Keys are values — copy freely;
/// derivation never mutates the parent.
class StreamKey {
 public:
  /// Root key of a reproducibility domain (a whole experiment / sweep).
  constexpr explicit StreamKey(std::uint64_t master_seed)
      : state_{detail::key_mix(0, kRootSalt, master_seed)} {}

  /// Child stream for a named subsystem or purpose.  Order-sensitive:
  /// split("a").split("b") != split("b").split("a") by design (the chain
  /// *is* the hierarchy).
  [[nodiscard]] constexpr StreamKey split(std::string_view name) const {
    return StreamKey{detail::key_mix(state_, kNameSalt,
                                     detail::name_hash(name)),
                     Raw{}};
  }

  /// Child stream for an integer tag (enum values, fault kinds, ...).
  /// Lives in a different salt family than at(): split(i) != at(i).
  [[nodiscard]] constexpr StreamKey split(std::uint64_t tag) const {
    return StreamKey{detail::key_mix(state_, kTagSalt, tag), Raw{}};
  }

  /// Child stream for element `index` of a collection (trial, chip, lane,
  /// path, slot...).  Siblings at(i) and at(j) are independent streams.
  [[nodiscard]] constexpr StreamKey at(std::uint64_t index) const {
    return StreamKey{detail::key_mix(state_, kIndexSalt, index), Raw{}};
  }

  /// The derived 64-bit state.
  [[nodiscard]] constexpr std::uint64_t state() const { return state_; }

  [[nodiscard]] constexpr bool operator==(const StreamKey&) const = default;

 private:
  struct Raw {};
  constexpr StreamKey(std::uint64_t state, Raw) : state_{state} {}

  static constexpr std::uint64_t kRootSalt = 0x43A5D1F30E9C2B87ULL;
  static constexpr std::uint64_t kNameSalt = 0x8D2E1A7F5B9C6E03ULL;
  static constexpr std::uint64_t kTagSalt = 0x2F6B8C1D9A4E7350ULL;
  static constexpr std::uint64_t kIndexSalt = 0xB1E69C25D8F4A07BULL;

  std::uint64_t state_;
};

/// Counter-based generator over a StreamKey: draw i is the pure hash
/// word_at(i), so the stream can be entered at any offset and regenerated
/// by any shard.  Satisfies UniformRandomBitGenerator.
class CounterRng {
 public:
  using result_type = std::uint64_t;

  constexpr explicit CounterRng(StreamKey key) : key_{key} {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Draw `index` of this key's stream, independent of instance state.
  /// This is the splitmix64 output function over the key's gamma sequence.
  [[nodiscard]] constexpr result_type word_at(std::uint64_t index) const {
    std::uint64_t z = key_.state() + (index + 1) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Sequential draw: word_at(counter), then advance the counter.
  constexpr result_type operator()() { return word_at(counter_++); }

  [[nodiscard]] constexpr StreamKey key() const { return key_; }
  [[nodiscard]] constexpr std::uint64_t counter() const { return counter_; }
  /// Repositions the stream (draws are pure, so any offset is valid).
  constexpr void seek(std::uint64_t counter) {
    counter_ = counter;
    have_spare_ = false;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).  n must be > 0.  Lemire's unbiased bounded
  /// generation; the (rare) rejection loop advances the counter, which is
  /// deterministic per instance and therefore draw-stable.
  std::uint64_t uniform_int(std::uint64_t n) {
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

  /// Standard normal via Box-Muller: exactly two uniforms per pair, no
  /// rejection, so the counter advance per normal is fixed.  The spare is
  /// per-instance state (never shared across splits), which keeps equal
  /// keys producing equal sequences.
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

 private:
  StreamKey key_;
  std::uint64_t counter_{0};
  bool have_spare_{false};
  // The pending spare's Box-Muller radius and angle.
  double spare_r_{0.0};
  double spare_theta_{0.0};
};

}  // namespace roclk
