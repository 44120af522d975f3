#include "roclk/service/server.hpp"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <unordered_map>

#include "roclk/service/cache.hpp"
#include "roclk/service/execute.hpp"
#include "roclk/service/journal.hpp"

namespace roclk::service {

namespace {

// Drives request-latency stats and coalescing timeouts on the transport
// boundary only; simulation payloads never read it.
using Clock = std::chrono::steady_clock;  // roclk-lint: allow(wall-clock)

/// One simulation shared by every coalesced asker of the same scenario.
struct InFlight {
  std::mutex mutex;
  std::condition_variable cv;
  bool done{false};
  Response response;
};

}  // namespace

struct SweepService::Impl {
  ServiceConfig config;
  /// One lock guards cache, in-flight table, admission count and stats:
  /// the cache miss -> in-flight lookup sequence and the publish (store +
  /// erase) sequence must each be atomic, or a straggler between them
  /// would re-simulate a scenario that just finished.
  mutable std::mutex mutex;
  ResultCache cache;
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> in_flight;
  std::size_t admitted{0};
  bool shutting_down{false};
  ServiceStats stats;
  CacheJournal journal;

  explicit Impl(ServiceConfig cfg)
      : config{cfg}, cache{cfg.cache_capacity} {
    if (config.journal_compact_every == 0) {
      config.journal_compact_every = 4096;
    }
    if (config.journal_path.empty() || config.cache_capacity == 0) return;

    // Warm start: replay every intact record (file order = store order,
    // so LRU recency is reconstructed), then compact so the file starts
    // this run holding exactly the live entries.
    const JournalLoadResult loaded = CacheJournal::load(config.journal_path);
    for (const JournalEntry& entry : loaded.entries) {
      cache.store(entry.hash, entry.response);
    }
    stats.journal_recovered = loaded.records_loaded;
    stats.journal_dropped_words = loaded.dropped_tail_words;

    if (!journal.open_for_append(config.journal_path).is_ok()) {
      ++stats.journal_errors;
      return;
    }
    if (loaded.records_loaded > 0 || loaded.dropped_tail_words > 0) {
      if (compact_locked().is_ok()) {
        ++stats.journal_compactions;
      } else {
        ++stats.journal_errors;
      }
    }
  }

  /// Rewrites the journal to the cache's live entries.  Caller holds
  /// `mutex` (or, in the constructor, is the only thread).
  [[nodiscard]] Status compact_locked() {
    const auto snapshot = cache.snapshot_lru_to_mru();
    std::vector<JournalEntry> entries;
    entries.reserve(snapshot.size());
    for (const auto& [hash, response] : snapshot) {
      entries.push_back(JournalEntry{hash, *response});
    }
    return journal.compact(entries);
  }

  /// Persists one freshly-stored cache entry; compacts when the log has
  /// outgrown its budget.  Caller holds `mutex`.
  void journal_store_locked(std::uint64_t hash, const Response& response) {
    if (!journal.open()) return;
    if (journal.append(hash, response).is_ok()) {
      ++stats.journal_appends;
    } else {
      ++stats.journal_errors;
    }
    if (journal.appended_records() >= config.journal_compact_every) {
      if (compact_locked().is_ok()) {
        ++stats.journal_compactions;
      } else {
        ++stats.journal_errors;
      }
    }
  }
};

SweepService::SweepService(ServiceConfig config)
    : impl_{std::make_unique<Impl>(config)} {}
SweepService::~SweepService() = default;

Response SweepService::handle(const Request& request) {
  Result<Request> normalized = normalize(request);
  if (!normalized.is_ok()) {
    const std::lock_guard lock{impl_->mutex};
    ++impl_->stats.invalid;
    return Response::error(ResponseStatus::kInvalidRequest,
                           normalized.status().message());
  }
  const Request& norm = normalized.value();
  const std::uint64_t hash = content_hash(norm);

  const std::uint32_t deadline_ms = request.deadline_ms != 0
                                        ? request.deadline_ms
                                        : impl_->config.default_deadline_ms;
  const bool has_deadline = deadline_ms != 0;
  // Every use of `deadline` is behind has_deadline, so a request without
  // one (every hot query) reads no clock.
  const Clock::time_point deadline =
      has_deadline ? Clock::now() + std::chrono::milliseconds{deadline_ms}
                   : Clock::time_point::max();

  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    const std::lock_guard lock{impl_->mutex};
    if (impl_->shutting_down) {
      return Response::error(ResponseStatus::kShuttingDown,
                             "service is draining");
    }
    ++impl_->stats.accepted;

    Response cached;
    if (impl_->cache.lookup(hash, cached)) {
      ++impl_->stats.cache_hits;
      ++impl_->stats.completed;
      cached.from_cache = true;
      cached.content_hash = hash;
      return cached;
    }

    if (impl_->admitted >= impl_->config.max_in_flight) {
      ++impl_->stats.shed;
      return Response::error(ResponseStatus::kOverloaded,
                             "admission queue is full");
    }
    if (has_deadline && Clock::now() >= deadline) {
      ++impl_->stats.deadline_exceeded;
      return Response::error(ResponseStatus::kDeadlineExceeded,
                             "deadline elapsed before admission");
    }

    const auto it = impl_->in_flight.find(hash);
    if (it != impl_->in_flight.end()) {
      flight = it->second;
      ++impl_->stats.coalesced;
    } else {
      flight = std::make_shared<InFlight>();
      impl_->in_flight.emplace(hash, flight);
      owner = true;
      ++impl_->stats.simulations;
    }
    ++impl_->admitted;
  }

  if (owner) {
    Response response;
    try {
      if (impl_->config.before_execute) impl_->config.before_execute();
      response = execute(norm, impl_->config.sim_pool);
    } catch (const std::exception& e) {
      // execute() converts simulator exceptions itself; this outer catch
      // keeps anything thrown between admission and publish (hooks
      // included) from stranding coalesced waiters or leaking the
      // admission slot.
      response = Response::error(ResponseStatus::kInternalError, e.what());
    }
    response.content_hash = hash;

    const std::lock_guard lock{impl_->mutex};
    if (response.ok()) {
      impl_->cache.store(hash, response);
      impl_->journal_store_locked(hash, response);
      ++impl_->stats.completed;
    }
    --impl_->admitted;
    impl_->in_flight.erase(hash);
    {
      // Global order is impl_->mutex before flight->mutex everywhere;
      // waiters release flight->mutex before touching impl_->mutex.
      const std::lock_guard flight_lock{flight->mutex};  // roclk-lint: allow(lock-order)
      flight->done = true;
      flight->response = response;
    }
    flight->cv.notify_all();
    return response;
  }

  // Coalesced: wait for the owner, bounded by our own deadline (the
  // owner's simulation keeps running — a late waiter's impatience must
  // not cancel the answer everyone else is waiting for).
  std::unique_lock flight_lock{flight->mutex};
  const auto ready = [&] { return flight->done; };
  bool got_result = true;
  if (has_deadline) {
    got_result = flight->cv.wait_until(flight_lock, deadline, ready);
  } else {
    flight->cv.wait(flight_lock, ready);
  }
  Response response = got_result
                          ? flight->response
                          : Response::error(ResponseStatus::kDeadlineExceeded,
                                            "deadline elapsed while waiting "
                                            "on a coalesced simulation");
  flight_lock.unlock();

  const std::lock_guard lock{impl_->mutex};
  --impl_->admitted;
  if (got_result) {
    response.coalesced = true;
    if (response.ok()) ++impl_->stats.completed;
  } else {
    ++impl_->stats.deadline_exceeded;
  }
  return response;
}

void SweepService::begin_shutdown() {
  const std::lock_guard lock{impl_->mutex};
  impl_->shutting_down = true;
}

bool SweepService::shutting_down() const {
  const std::lock_guard lock{impl_->mutex};
  return impl_->shutting_down;
}

ServiceStats SweepService::stats() const {
  const std::lock_guard lock{impl_->mutex};
  return impl_->stats;
}

}  // namespace roclk::service
