#include "roclk/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace roclk {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool{4};
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.shutdown();  // the workers drain the queue before they exit
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool{3};
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool{0};
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, NullTaskRejected) {
  ThreadPool pool{1};
  EXPECT_THROW(pool.submit(nullptr), std::logic_error);
}

TEST(ParallelForIndex, CoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForIndex, ZeroIterationsIsNoop) {
  ThreadPool pool{2};
  bool touched = false;
  parallel_for(pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelForIndex, ResultsMatchSerialComputation) {
  std::vector<double> out(500, 0.0);
  parallel_for(out.size(), [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 2.0;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 2.0);
  }
}

TEST(ParallelForIndex, ReusablePool) {
  ThreadPool pool{2};
  std::atomic<int> total{0};
  parallel_for(pool, 10, [&](std::size_t) { total.fetch_add(1); });
  parallel_for(pool, 20, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 30);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool{2};
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.shutdown();
  EXPECT_EQ(counter.load(), 1);
  EXPECT_THROW(pool.submit([] {}), std::logic_error);
  pool.shutdown();  // idempotent
}

TEST(ThreadPool, SharedPoolIsProcessWideAndUsable) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
  std::atomic<int> total{0};
  parallel_for(37, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 37);
}

TEST(ParallelFor, ManyTinyCallsOnSharedPool) {
  // Stress the per-call scheduling state: thousands of tiny sweeps must
  // neither leak, deadlock, nor drop indices.
  std::atomic<long> total{0};
  for (int call = 0; call < 2000; ++call) {
    parallel_for(3, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i) + 1);
    });
  }
  EXPECT_EQ(total.load(), 2000L * 6L);
}

TEST(ParallelFor, NestedCallsComplete) {
  // An inner parallel_for issued from worker context must finish even when
  // every worker is already busy in the outer loop (the caller claims
  // ranges itself).  A pool of 2 guarantees oversubscription.
  ThreadPool pool{2};
  std::vector<std::atomic<int>> hits(8 * 16);
  parallel_for(pool, 8, [&](std::size_t outer) {
    parallel_for(pool, 16, [&](std::size_t inner) {
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, LargeIndexSpaceCoversEveryIndexOnce) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(100000);
  parallel_for(pool, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelFor, ExceptionsEscapeNowhereButWorkCompletes) {
  // fn runs on the calling thread for n == 1, so a throwing body is
  // observable there; the pool itself must stay usable afterwards.
  ThreadPool pool{2};
  EXPECT_THROW(
      parallel_for(pool, 1,
                   [](std::size_t) { throw std::runtime_error{"boom"}; }),
      std::runtime_error);
  std::atomic<int> total{0};
  parallel_for(pool, 10, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 10);
}

}  // namespace
}  // namespace roclk
