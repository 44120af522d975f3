// Property tests for the splittable counter-based RNG (DESIGN.md §13).
//
// The contract under test: a CounterRng's draws are a pure function of
// (StreamKey, draw index).  Same key => same draws, regardless of
// interleaving, split order at other keys, or which instance makes them;
// distinct keys => independent-looking streams.  These are the properties
// the sharded Monte-Carlo drivers rely on for scheduling invariance.
#include "roclk/common/stream_key.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <set>
#include <vector>

namespace roclk {
namespace {

TEST(StreamKeyTest, EqualSeedsDeriveEqualKeys) {
  const StreamKey a{1234};
  const StreamKey b{1234};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.split("x").at(7), b.split("x").at(7));
  EXPECT_NE(StreamKey{1234}, StreamKey{1235});
}

TEST(StreamKeyTest, DerivationKindsLiveInDisjointFamilies) {
  const StreamKey k{99};
  // split(name), split(tag) and at(index) must never collide, even for
  // "the same" value: they are salted into different families.
  EXPECT_NE(k.split(std::uint64_t{5}), k.at(5));
  EXPECT_NE(k.split("5"), k.split(std::uint64_t{5}));
  EXPECT_NE(k.split("5"), k.at(5));
  // Derivation never returns the parent.
  EXPECT_NE(k.split("child"), k);
  EXPECT_NE(k.at(0), k);
}

TEST(StreamKeyTest, SplitIsOrderSensitiveAndNonCommutative) {
  const StreamKey k{7};
  EXPECT_NE(k.split("a").split("b"), k.split("b").split("a"));
  EXPECT_NE(k.split("a").at(1), k.at(1).split("a"));
  // Flattening the chain must not alias a nested chain.
  EXPECT_NE(k.split("ab"), k.split("a").split("b"));
}

TEST(StreamKeyTest, SiblingKeysAreDistinctAcrossWideIndexRange) {
  const StreamKey base = StreamKey{42}.split("chips");
  std::set<std::uint64_t> states;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    states.insert(base.at(i).state());
  }
  EXPECT_EQ(states.size(), 4096u);
}

TEST(CounterRngTest, DrawsArePureFunctionsOfKeyAndIndex) {
  const StreamKey key = StreamKey{2024}.split("purity");
  CounterRng sequential{key};
  const CounterRng indexed{key};
  for (std::uint64_t i = 0; i < 256; ++i) {
    EXPECT_EQ(sequential(), indexed.word_at(i)) << "draw " << i;
  }
}

TEST(CounterRngTest, SameKeySameDrawsRegardlessOfInterleaving) {
  const StreamKey key = StreamKey{77}.split("interleave");
  // Reference: one instance drawing 64 uniforms back to back.
  CounterRng reference{key};
  std::vector<double> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(reference.uniform());

  // Interleaved: two instances of the same key advanced alternately, with
  // unrelated draws from other streams in between.
  CounterRng a{key};
  CounterRng other{StreamKey{77}.split("noise")};
  std::vector<double> got;
  for (int i = 0; i < 64; ++i) {
    (void)other.uniform();  // foreign draws must not disturb `a`
    got.push_back(a.uniform());
    (void)other();
  }
  EXPECT_EQ(got, expected);

  // Seek: entering the stream mid-way reproduces the suffix.
  CounterRng seeked{key};
  seeked.seek(32);
  for (int i = 32; i < 64; ++i) {
    EXPECT_EQ(seeked.uniform(), expected[static_cast<std::size_t>(i)]);
  }
}

TEST(CounterRngTest, SplitOrderDoesNotPerturbSiblingStreams) {
  // Drawing from (or even deriving) one child must not change another
  // child's stream — the property xor-tag seeding never guaranteed.
  const StreamKey root{31337};
  CounterRng before{root.split("stable")};
  const std::uint64_t w0 = before.word_at(0);
  const std::uint64_t w1 = before.word_at(1);

  CounterRng sibling{root.split("greedy")};
  for (int i = 0; i < 100; ++i) (void)sibling();

  CounterRng after{root.split("stable")};
  EXPECT_EQ(after.word_at(0), w0);
  EXPECT_EQ(after.word_at(1), w1);
}

TEST(CounterRngTest, DistinctKeysLookIndependent) {
  // Smoke-level independence: across 512 sibling streams, the first draw's
  // uniform mapping should have ~Uniform(0,1) mean and variance, and the
  // lag-1 correlation between adjacent siblings should be small.
  const StreamKey base = StreamKey{5150}.split("independence");
  const int n = 512;
  std::vector<double> first;
  first.reserve(n);
  for (int i = 0; i < n; ++i) {
    CounterRng rng{base.at(static_cast<std::uint64_t>(i))};
    first.push_back(rng.uniform());
  }
  double mean = 0.0;
  for (double v : first) mean += v;
  mean /= n;
  double var = 0.0;
  double lag1 = 0.0;
  for (int i = 0; i < n; ++i) {
    var += (first[i] - mean) * (first[i] - mean);
    if (i > 0) lag1 += (first[i] - mean) * (first[i - 1] - mean);
  }
  var /= n;
  lag1 /= (n - 1) * var;
  EXPECT_NEAR(mean, 0.5, 0.05);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.02);
  EXPECT_LT(std::abs(lag1), 0.15);
}

TEST(CounterRngTest, UniformBoundsAndMoments) {
  CounterRng rng{StreamKey{8}.split("uniform")};
  double mean = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    ASSERT_GE(v, -2.0);
    ASSERT_LT(v, 3.0);
    mean += v;
  }
  EXPECT_NEAR(mean / n, 0.5, 0.05);
}

TEST(CounterRngTest, UniformIntIsBoundedAndRoughlyFlat) {
  CounterRng rng{StreamKey{8}.split("uniform_int")};
  const std::uint64_t n = 10;
  std::vector<int> counts(n, 0);
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t v = rng.uniform_int(n);
    ASSERT_LT(v, n);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / static_cast<double>(n),
                0.15 * draws / static_cast<double>(n));
  }
}

TEST(CounterRngTest, NormalMomentsAndDrawStability) {
  CounterRng rng{StreamKey{8}.split("normal")};
  double mean = 0.0;
  double m2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    mean += v;
    m2 += v * v;
  }
  mean /= n;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(m2 / n - mean * mean, 1.0, 0.05);

  // The Box-Muller spare is per-instance: a fresh instance of the same key
  // replays the identical normal sequence (no cross-instance cache).
  CounterRng replay{StreamKey{8}.split("normal")};
  CounterRng fresh{StreamKey{8}.split("normal")};
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(replay.normal(), fresh.normal()) << "normal draw " << i;
  }
  // Scaled draws consume the stream exactly like standard draws.
  CounterRng scaled{StreamKey{8}.split("normal")};
  CounterRng standard{StreamKey{8}.split("normal")};
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(scaled.normal(3.0, 2.0), 3.0 + 2.0 * standard.normal());
  }
}

TEST(CounterRngTest, SeekClearsTheNormalSpare) {
  const StreamKey key = StreamKey{8}.split("seek_spare");
  CounterRng a{key};
  (void)a.normal();  // leaves a spare cached
  a.seek(0);
  CounterRng b{key};
  // If seek kept the spare, a's next normal would pop the stale cache
  // instead of re-deriving draw 0.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.normal(), b.normal());
}

/// `x` read back from memory the optimizer cannot see into, so the libm
/// calls on it run at run time, as the library's do, instead of being
/// folded at compile time.
double opaque(double x) {
  volatile double held = x;
  return held;
}

TEST(CounterRngTest, NormalPairIsBoxMullerAndTheSpareIsDrawnLazily) {
  const StreamKey key = StreamKey{8}.split("lazy_spare");
  // The pair equals the explicit Box-Muller formula over draws 0 and 1,
  // bitwise: the spare is r * sin(theta) whenever it is computed.
  const CounterRng words{key};
  const double u1 =
      opaque(1.0 - static_cast<double>(words.word_at(0) >> 11) * 0x1.0p-53);
  const double u2 =
      opaque(static_cast<double>(words.word_at(1) >> 11) * 0x1.0p-53);
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  CounterRng rng{key};
  EXPECT_EQ(rng.normal(), r * std::cos(theta));
  // A copy made between the two draws returns the pending spare too.
  CounterRng copy = rng;
  EXPECT_EQ(rng.normal(), r * std::sin(theta));
  EXPECT_EQ(copy.normal(), r * std::sin(theta));
  EXPECT_EQ(rng.counter(), 2u);
  EXPECT_EQ(copy.counter(), 2u);

  // seek() drops a pending spare: the next normal starts a new pair at
  // the sought draw instead of returning r * sin(theta).
  CounterRng sought{key};
  (void)sought.normal();
  sought.seek(2);
  CounterRng skipped{key};
  skipped.seek(2);
  EXPECT_EQ(sought.normal(), skipped.normal());
  EXPECT_EQ(sought.counter(), 4u);
}

}  // namespace
}  // namespace roclk
