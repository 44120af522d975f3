#include "roclk/analysis/sweep_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>

#include "roclk/analysis/experiments.hpp"
#include "roclk/common/thread_pool.hpp"

namespace roclk::analysis {
namespace {

SweepKey key_of(double mu) {
  SweepKey key;
  key.kind = static_cast<int>(SystemKind::kIir);
  key.setpoint_c = 64.0;
  key.tclk_stages = 64.0;
  key.amplitude_stages = 12.8;
  key.period_stages = 1600.0;
  key.mu_stages = mu;
  key.cycles = 5000;
  key.skip = 1000;
  key.quantization = static_cast<int>(cdn::DelayQuantization::kLinearInterp);
  return key;
}

TEST(SweepMemo, StoreThenLookupRoundTrips) {
  SweepMemo memo;
  RunMetrics metrics;
  metrics.safety_margin = 3.5;
  metrics.mean_period = 66.0;
  metrics.violations = 7;
  metrics.tau_ripple = 1.25;
  memo.store(key_of(0.0), metrics);

  RunMetrics out;
  EXPECT_TRUE(memo.lookup(key_of(0.0), out));
  EXPECT_DOUBLE_EQ(out.safety_margin, 3.5);
  EXPECT_DOUBLE_EQ(out.mean_period, 66.0);
  EXPECT_EQ(out.violations, 7u);
  EXPECT_DOUBLE_EQ(out.tau_ripple, 1.25);

  EXPECT_FALSE(memo.lookup(key_of(1.0), out));
  const auto stats = memo.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SweepMemo, DisabledMemoAlwaysMisses) {
  SweepMemo memo;
  memo.store(key_of(0.0), RunMetrics{});
  memo.set_enabled(false);
  RunMetrics out;
  EXPECT_FALSE(memo.lookup(key_of(0.0), out));
  memo.store(key_of(2.0), RunMetrics{});  // dropped while disabled
  memo.set_enabled(true);
  EXPECT_TRUE(memo.lookup(key_of(0.0), out));
  EXPECT_FALSE(memo.lookup(key_of(2.0), out));
}

TEST(SweepMemo, ClearDropsEntriesAndCounters) {
  SweepMemo memo;
  memo.store(key_of(0.0), RunMetrics{});
  RunMetrics out;
  (void)memo.lookup(key_of(0.0), out);
  memo.clear();
  const auto stats = memo.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_FALSE(memo.lookup(key_of(0.0), out));
}

TEST(SweepMemo, MeasureSystemHitsOnRepeatAndRenormalises) {
  auto& memo = SweepMemo::global();
  memo.clear();
  const auto first =
      measure_system(SystemKind::kIir, 64.0, 64.0, 12.8, 1600.0, 0.0,
                     /*fixed_period=*/76.8, 5000, 1000);
  const auto before = memo.stats();
  EXPECT_GE(before.misses, 1u);
  EXPECT_GE(before.entries, 1u);

  // Identical parameters: served from the memo.
  const auto again =
      measure_system(SystemKind::kIir, 64.0, 64.0, 12.8, 1600.0, 0.0,
                     76.8, 5000, 1000);
  const auto after = memo.stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(again.relative_adaptive_period, first.relative_adaptive_period);
  EXPECT_EQ(again.mean_period, first.mean_period);
  EXPECT_EQ(again.safety_margin, first.safety_margin);
  EXPECT_EQ(again.violations, first.violations);

  // A different T_fixed reuses the simulation but renormalises the
  // relative period (T_fixed is not part of the key).
  const auto renorm =
      measure_system(SystemKind::kIir, 64.0, 64.0, 12.8, 1600.0, 0.0,
                     89.6, 5000, 1000);
  EXPECT_EQ(memo.stats().hits, before.hits + 2);
  EXPECT_DOUBLE_EQ(
      renorm.relative_adaptive_period,
      (first.mean_period + first.safety_margin) / 89.6);
}

TEST(SweepMemo, ThreadSafeUnderConcurrentSweep) {
  auto& memo = SweepMemo::global();
  memo.clear();
  std::atomic<int> mismatches{0};
  // Hammer the same small key set from many parallel workers; every result
  // must be internally consistent regardless of hit/miss interleaving.
  parallel_for(64, [&](std::size_t i) {
    const double mu = static_cast<double>(i % 4);
    const auto m =
        measure_system(SystemKind::kTeaTime, 64.0, 64.0, 12.8, 400.0, mu,
                       76.8, 3000, 600);
    if (m.mean_period <= 0.0) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = memo.stats();
  EXPECT_EQ(stats.hits + stats.misses, 64u);
  // Only 4 distinct cells exist; everything else is served from the memo.
  // Workers racing on a cold key can each miss it once, so the bound is
  // one miss per key per concurrent thread (pool workers + the caller).
  const std::size_t worst_misses = 4 * (ThreadPool::shared().size() + 1);
  EXPECT_GE(stats.hits + worst_misses, 64u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 4u);
}

}  // namespace
}  // namespace roclk::analysis
