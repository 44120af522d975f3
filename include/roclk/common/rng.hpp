// Stateless 64-bit mixing.
//
// Every random draw in the library comes from a keyed CounterRng
// (roclk/common/stream_key.hpp).  StreamKey derives its keys with hash64,
// and CounterRng's draws use the same splitmix64 finaliser, so a key and
// its stream are the same on every platform and standard library.
#pragma once

#include <cstdint>

namespace roclk {

/// splitmix64: advances `state` by the golden gamma and returns the mixed
/// value.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of a value.
[[nodiscard]] constexpr std::uint64_t hash64(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

}  // namespace roclk
