// Persistent worker pool + chunked parallel-for used by the sweep runner.
//
// Parameter sweeps (Fig. 8 / Fig. 9 reproductions, yield Monte-Carlo) run
// thousands of independent simulations.  parallel_for distributes them over
// hardware threads while keeping results deterministically ordered (each
// index writes its own output slot).
//
// Scheduling model:
//  * One process-wide pool (ThreadPool::shared()), lazily created on first
//    use, sized to hardware concurrency.  Sweeps no longer pay thread
//    creation/teardown per call.
//  * parallel_for splits [0, n) into contiguous ranges and submits at most
//    one range task per worker; the calling thread participates by claiming
//    ranges itself, so the call is safe to nest (an inner parallel_for on a
//    fully busy pool is completed by its own caller) and never deadlocks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace roclk {

class ThreadPool {
 public:
  /// threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Lazily initialised process-wide pool shared by every sweep.
  static ThreadPool& shared();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; fire-and-forget.
  void submit(std::function<void()> task);

  /// Joins the workers and rejects further submits.  Idempotent; the
  /// destructor calls it implicitly.
  void shutdown();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  bool stop_{false};
};

/// Runs fn(i) for i in [0, n) across the pool; blocks until all complete.
/// fn must be safe to call concurrently for distinct i.  The caller helps
/// execute ranges, so nesting parallel_for inside fn is safe.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Same, on the shared process-wide pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace roclk
