// Word-level codec shared by the service's request schema and frame
// protocol.
//
// Everything the sweep service puts on a wire is a sequence of 64-bit
// words: doubles travel as their IEEE-754 bit patterns, counts and enums
// widen to u64.  A splitmix-style checksum chains over every word as it is
// written/read, so framing (protocol.hpp) and content hashing
// (request.hpp) share one mixing function and a torn or bit-flipped frame
// is rejected instead of decoded into garbage.  The reader is fail-soft:
// reading past the end latches ok() = false and yields zeros, so decoders
// can parse first and check once at the end.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace roclk::service {

/// Chain seed shared by checksums and content hashes (FNV-1a offset
/// basis, the same constant SweepMemo's key hash starts from).
inline constexpr std::uint64_t kWireSeed = 0x6C62272E07BB0142ULL;

/// splitmix64-style combiner: absorbs one word into a running hash.
[[nodiscard]] constexpr std::uint64_t wire_mix(std::uint64_t h,
                                               std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDULL;
  return h ^ (h >> 33);
}

/// Accumulates words plus their running checksum.
struct WireWriter {
  std::vector<std::uint64_t> words;
  std::uint64_t checksum{kWireSeed};

  void put(std::uint64_t v) {
    words.push_back(v);
    checksum = wire_mix(checksum, v);
  }
  void put_double(double v) { put(std::bit_cast<std::uint64_t>(v)); }
};

/// Reads words back, chaining the same checksum.  Out-of-bounds reads
/// latch ok() false and return 0 rather than indexing past the buffer.
class WireReader {
 public:
  WireReader(const std::uint64_t* words, std::size_t count)
      : words_{words}, count_{count} {}

  [[nodiscard]] std::uint64_t take() {
    if (next_ >= count_) {
      ok_ = false;
      return 0;
    }
    const std::uint64_t v = words_[next_++];
    checksum_ = wire_mix(checksum_, v);
    return v;
  }
  [[nodiscard]] double take_double() {
    return std::bit_cast<double>(take());
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return count_ - next_; }
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

 private:
  const std::uint64_t* words_;
  std::size_t count_;
  std::size_t next_{0};
  std::uint64_t checksum_{kWireSeed};
  bool ok_{true};
};

}  // namespace roclk::service
