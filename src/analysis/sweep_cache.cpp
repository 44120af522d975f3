#include "roclk/analysis/sweep_cache.hpp"

#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace roclk::analysis {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // splitmix64-style combiner; cheap and good enough for sweep grids.
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDULL;
  return h ^ (h >> 33);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct KeyHash {
  std::size_t operator()(const SweepKey& key) const {
    std::uint64_t h = 0x6C62272E07BB0142ULL;
    h = mix(h, static_cast<std::uint64_t>(key.kind));
    h = mix(h, bits(key.setpoint_c));
    h = mix(h, bits(key.tclk_stages));
    h = mix(h, bits(key.amplitude_stages));
    h = mix(h, bits(key.period_stages));
    h = mix(h, bits(key.mu_stages));
    h = mix(h, key.cycles);
    h = mix(h, key.skip);
    h = mix(h, bits(key.free_ro_margin));
    h = mix(h, static_cast<std::uint64_t>(key.quantization));
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

struct SweepMemo::Impl {
  mutable std::mutex mutex;
  std::unordered_map<SweepKey, RunMetrics, KeyHash> entries;
  std::size_t hits{0};
  std::size_t misses{0};
  bool enabled{true};
};

SweepMemo::SweepMemo() : impl_{std::make_unique<Impl>()} {}
SweepMemo::~SweepMemo() = default;

SweepMemo& SweepMemo::global() {
  static SweepMemo memo;
  return memo;
}

bool SweepMemo::lookup(const SweepKey& key, RunMetrics& metrics) {
  std::lock_guard lock(impl_->mutex);
  if (!impl_->enabled) {
    ++impl_->misses;
    return false;
  }
  const auto it = impl_->entries.find(key);
  if (it == impl_->entries.end()) {
    ++impl_->misses;
    return false;
  }
  ++impl_->hits;
  metrics = it->second;
  return true;
}

void SweepMemo::store(const SweepKey& key, const RunMetrics& metrics) {
  std::lock_guard lock(impl_->mutex);
  if (!impl_->enabled) return;
  impl_->entries.insert_or_assign(key, metrics);
}

SweepMemoStats SweepMemo::stats() const {
  std::lock_guard lock(impl_->mutex);
  return {impl_->hits, impl_->misses, impl_->entries.size()};
}

void SweepMemo::clear() {
  std::lock_guard lock(impl_->mutex);
  impl_->entries.clear();
  impl_->hits = 0;
  impl_->misses = 0;
}

void SweepMemo::set_enabled(bool enabled) {
  std::lock_guard lock(impl_->mutex);
  impl_->enabled = enabled;
}

}  // namespace roclk::analysis
