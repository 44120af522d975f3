// Content-addressed result cache with bounded-size LRU eviction.
//
// The service addresses finished responses by the request's content hash
// (request.hpp): a million identical "margin for this corner?" queries
// cost one simulation and N-1 cache hits.  The cache is bounded —
// `capacity` entries, least-recently-used evicted first — so a daemon
// that has seen millions of *distinct* scenarios holds its working set
// instead of growing without limit.
//
// Deliberately NOT internally synchronized: SweepService consults the
// cache under the same lock that guards its in-flight table, which is
// what closes the lookup-miss / publish race that would otherwise let a
// straggler re-simulate a just-finished scenario.  Standalone users must
// provide their own locking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "roclk/service/protocol.hpp"

namespace roclk::service {

struct ResultCacheStats {
  std::size_t hits{0};
  std::size_t misses{0};
  std::size_t evictions{0};
  std::size_t entries{0};
};

class ResultCache {
 public:
  /// `capacity` == 0 disables caching entirely (every lookup misses,
  /// every store is dropped) — the knob for measuring uncached service
  /// throughput.
  explicit ResultCache(std::size_t capacity) : capacity_{capacity} {}

  /// On a hit fills `response` (sans from_cache, which the service
  /// stamps) and refreshes the entry's recency.
  [[nodiscard]] bool lookup(std::uint64_t hash, Response& response);

  /// Inserts or refreshes an entry, evicting least-recently-used entries
  /// while over capacity.  Only OK responses are worth caching; callers
  /// enforce that policy.
  void store(std::uint64_t hash, const Response& response);

  [[nodiscard]] ResultCacheStats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Live entries in least- to most-recently-used order — the order a
  /// journal snapshot replays them so recency survives a compaction
  /// round trip (journal.hpp).  Does not refresh recency.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, const Response*>>
  snapshot_lru_to_mru() const;

 private:
  struct Entry {
    Response response;
    std::list<std::uint64_t>::iterator lru_slot;
  };

  std::size_t capacity_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::size_t hits_{0};
  std::size_t misses_{0};
  std::size_t evictions_{0};
};

}  // namespace roclk::service
