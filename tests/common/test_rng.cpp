#include "roclk/common/rng.hpp"

#include <gtest/gtest.h>

namespace roclk {
namespace {

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
