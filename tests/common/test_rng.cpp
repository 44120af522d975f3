#include "roclk/common/rng.hpp"

#include <gtest/gtest.h>

#include "roclk/common/stats.hpp"

namespace roclk {
namespace {

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a{123};
  Xoshiro256 b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a{1};
  Xoshiro256 b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Xoshiro256 rng{8};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Xoshiro256 rng{9};
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformIntBounded) {
  Xoshiro256 rng{10};
  std::array<int, 10> counts{};
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);  // roughly uniform
  }
}

TEST(Rng, NormalMoments) {
  Xoshiro256 rng{11};
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalScaled) {
  Xoshiro256 rng{12};
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, JumpDecorrelatesStreams) {
  Xoshiro256 a{42};
  Xoshiro256 b{42};
  b.jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitMix64KnownSequenceIsStable) {
  // Regression-pin the seeding path: identical inputs, identical stream.
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 0;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  }
}

TEST(Rng, Hash64IsDeterministicAndSpreads) {
  EXPECT_EQ(hash64(1234), hash64(1234));
  EXPECT_NE(hash64(1234), hash64(1235));
}

}  // namespace
}  // namespace roclk
