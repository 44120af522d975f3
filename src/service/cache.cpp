#include "roclk/service/cache.hpp"

namespace roclk::service {

bool ResultCache::lookup(std::uint64_t hash, Response& response) {
  const auto it = entries_.find(hash);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_slot);
  response = it->second.response;
  return true;
}

void ResultCache::store(std::uint64_t hash, const Response& response) {
  if (capacity_ == 0) return;
  const auto it = entries_.find(hash);
  if (it != entries_.end()) {
    it->second.response = response;
    lru_.splice(lru_.begin(), lru_, it->second.lru_slot);
    return;
  }
  lru_.push_front(hash);
  entries_.emplace(hash, Entry{response, lru_.begin()});
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

ResultCacheStats ResultCache::stats() const {
  return {hits_, misses_, evictions_, entries_.size()};
}

std::vector<std::pair<std::uint64_t, const Response*>>
ResultCache::snapshot_lru_to_mru() const {
  std::vector<std::pair<std::uint64_t, const Response*>> out;
  out.reserve(entries_.size());
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    out.emplace_back(*it, &entries_.at(*it).response);
  }
  return out;
}

}  // namespace roclk::service
