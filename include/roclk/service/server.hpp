// The sweep service: scenario queries with caching, request coalescing,
// and admission control.
//
// SweepService::handle() is the whole service in one blocking,
// thread-safe call — the daemon (tools/roclk_sweepd) wraps it in frame
// transport, perfbench and tests drive it in-process.  The request
// path:
//
//   normalize  -> kInvalidRequest on a malformed scenario
//   cache      -> content-addressed LRU hit returns immediately
//                 (cache hits bypass admission control: serving a cached
//                 answer is cheaper than deciding to shed it)
//   admission  -> at most `max_in_flight` requests may be simulating or
//                 waiting; one more is *shed* with kOverloaded instead of
//                 queueing without bound (load-shedding keeps tail
//                 latency bounded under overload)
//   coalesce   -> an identical in-flight scenario absorbs this request:
//                 the first arrival simulates, the rest wait for its
//                 result — N identical concurrent queries cost exactly
//                 one simulation
//   execute    -> the winner simulates on `sim_pool`, stores the result,
//                 and publishes it to every waiter
//
// Deadlines: a request carrying deadline_ms (or inheriting
// default_deadline_ms) fails with kDeadlineExceeded once the deadline
// passes — checked at admission and while waiting on a coalesced
// simulation.  An in-progress simulation is never cancelled; its result
// still lands in the cache for the next asker.
//
// docs/service.md §operations documents the knobs; DESIGN.md §14 the
// architecture.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "roclk/common/thread_pool.hpp"
#include "roclk/service/protocol.hpp"
#include "roclk/service/request.hpp"

namespace roclk::service {

struct ServiceConfig {
  /// Admission bound: requests simulating or waiting on a coalesced
  /// simulation.  One more is shed with kOverloaded.
  std::size_t max_in_flight{64};
  /// Result-cache entries (LRU-evicted); 0 disables caching.
  std::size_t cache_capacity{1024};
  /// Deadline applied to requests that carry none (0 = none).
  std::uint32_t default_deadline_ms{0};
  /// Pool simulations run on (nullptr = strictly sequential).  Results
  /// are bitwise identical for every choice (DESIGN.md §13).
  ThreadPool* sim_pool{nullptr};
  /// Crash-safe cache persistence (journal.hpp).  Non-empty enables it:
  /// the constructor replays every intact record into the cache (warm
  /// start), compacts the file, and every subsequent cache store appends
  /// one record.  A corrupt or missing journal only degrades the warm
  /// start — the service always comes up.
  std::string journal_path;
  /// Appends between compactions.  Evictions and re-stores make the log
  /// outgrow the live cache; periodic compaction rewrites it to exactly
  /// the live entries.  0 keeps the default.
  std::uint64_t journal_compact_every{4096};
  /// Test hook: run on the owning thread after admission, before the
  /// simulation.  Lets tests hold a simulation "in flight" long enough to
  /// exercise coalescing, shedding, and deadline timeouts
  /// deterministically on a single-core host.  Leave empty in production.
  std::function<void()> before_execute;
};

struct ServiceStats {
  std::uint64_t accepted{0};      // requests past validation
  std::uint64_t invalid{0};       // rejected by normalize()
  std::uint64_t cache_hits{0};
  std::uint64_t coalesced{0};     // absorbed by an in-flight simulation
  std::uint64_t simulations{0};   // scenario executions actually run
  std::uint64_t shed{0};          // kOverloaded responses
  std::uint64_t deadline_exceeded{0};
  std::uint64_t completed{0};     // kOk responses served
  std::uint64_t journal_recovered{0};      // entries replayed on warm start
  std::uint64_t journal_dropped_words{0};  // torn tail discarded on load
  std::uint64_t journal_appends{0};
  std::uint64_t journal_compactions{0};
  std::uint64_t journal_errors{0};  // failed appends/compactions (service
                                    // keeps running; persistence degrades)
};

class SweepService {
 public:
  explicit SweepService(ServiceConfig config = {});
  ~SweepService();
  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Serves one scenario query.  Blocking; safe to call from any number
  /// of threads concurrently.
  [[nodiscard]] Response handle(const Request& request);

  /// Starts draining: every subsequent handle() answers kShuttingDown.
  /// In-flight simulations finish and their waiters are served.
  void begin_shutdown();
  [[nodiscard]] bool shutting_down() const;

  [[nodiscard]] ServiceStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace roclk::service
