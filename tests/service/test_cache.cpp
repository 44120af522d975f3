#include "roclk/service/cache.hpp"

#include <gtest/gtest.h>

namespace roclk::service {
namespace {

Response response_with(double value) {
  Response response;
  response.values = {value};
  return response;
}

TEST(ResultCache, StoreThenLookupRoundTrips) {
  ResultCache cache{4};
  cache.store(1, response_with(1.0));
  Response out;
  ASSERT_TRUE(cache.lookup(1, out));
  EXPECT_EQ(out.values, std::vector<double>{1.0});
  EXPECT_FALSE(cache.lookup(2, out));
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedFirst) {
  ResultCache cache{2};
  cache.store(1, response_with(1.0));
  cache.store(2, response_with(2.0));
  Response out;
  ASSERT_TRUE(cache.lookup(1, out));  // refresh 1 -> 2 is now LRU
  cache.store(3, response_with(3.0));  // evicts 2
  EXPECT_TRUE(cache.lookup(1, out));
  EXPECT_FALSE(cache.lookup(2, out));
  EXPECT_TRUE(cache.lookup(3, out));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultCache, StoreRefreshesRecencyAndValue) {
  ResultCache cache{2};
  cache.store(1, response_with(1.0));
  cache.store(2, response_with(2.0));
  cache.store(1, response_with(10.0));  // refresh: 2 becomes LRU
  cache.store(3, response_with(3.0));   // evicts 2
  Response out;
  ASSERT_TRUE(cache.lookup(1, out));
  EXPECT_EQ(out.values, std::vector<double>{10.0});
  EXPECT_FALSE(cache.lookup(2, out));
}

TEST(ResultCache, ZeroCapacityDisablesCaching) {
  ResultCache cache{0};
  cache.store(1, response_with(1.0));
  Response out;
  EXPECT_FALSE(cache.lookup(1, out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

}  // namespace
}  // namespace roclk::service
