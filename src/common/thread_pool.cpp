#include "roclk/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "roclk/common/status.hpp"

namespace roclk {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::submit(std::function<void()> task) {
  ROCLK_CHECK(task != nullptr, "null task submitted");
  {
    std::lock_guard lock(mutex_);
    ROCLK_CHECK(!stop_, "submit after shutdown");
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mutex_);
    if (stop_ && workers_.empty()) return;
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

/// Per-call scheduling state, heap-held so range tasks that drain after the
/// caller has already returned (every index claimed by other threads) touch
/// only memory they co-own.
struct ForState {
  std::atomic<std::size_t> next{0};  // first unclaimed index
  std::atomic<std::size_t> done{0};  // indices fully executed
  std::size_t n{0};
  std::size_t chunk{1};
  const std::function<void(std::size_t)>* fn{nullptr};
  std::mutex m;
  std::condition_variable cv;
};

/// Claims and executes ranges until the index space is exhausted; returns
/// the number of indices this thread completed.  `fn` is only dereferenced
/// while at least one index is still owed, which the caller outlives.
std::size_t drain(ForState& s) {
  std::size_t completed = 0;
  for (;;) {
    const std::size_t begin = s.next.fetch_add(s.chunk,
                                               std::memory_order_relaxed);
    if (begin >= s.n) break;
    const std::size_t end = std::min(s.n, begin + s.chunk);
    for (std::size_t i = begin; i < end; ++i) (*s.fn)(i);
    completed += end - begin;
  }
  return completed;
}

void finish(ForState& s, std::size_t completed) {
  if (completed == 0) return;
  if (s.done.fetch_add(completed, std::memory_order_acq_rel) + completed ==
      s.n) {
    std::lock_guard lock(s.m);  // pairs with the caller's predicate check
    s.cv.notify_all();
  }
}

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = pool.size();
  if (n == 1 || workers <= 1) {
    // One worker gains nothing over the caller running the loop directly.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->n = n;
  state->fn = &fn;
  // ~4 ranges per thread balances load without per-index queue churn.
  state->chunk = std::max<std::size_t>(1, n / ((workers + 1) * 4));

  const std::size_t helpers =
      std::min(workers, (n + state->chunk - 1) / state->chunk);
  for (std::size_t w = 0; w < helpers; ++w) {
    pool.submit([state] { finish(*state, drain(*state)); });
  }

  // The caller claims ranges too: progress is guaranteed even if every
  // worker is blocked inside an outer parallel_for (nested use).
  const std::size_t mine = drain(*state);
  finish(*state, mine);
  std::unique_lock lock(state->m);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->n;
  });
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  parallel_for(ThreadPool::shared(), n, fn);
}

}  // namespace roclk
