// Deterministic transport fault injection.
//
// FaultyStream decorates any ByteStream (a real socket fd, one end of a
// socketpair) and perturbs its operations according to a schedule that is
// a pure function of a StreamKey: draw j of operation i is
// CounterRng{key.split(direction).at(i)}'s draw j, so the same key
// produces the same short reads, the same EINTR storms, the same
// bit-flips and the same connection reset on every run — the PR 4
// fault-schedule philosophy (replay a failure bit-for-bit, then assert
// on the recovery) applied to the service transport.
//
// Fault kinds, mapped to the failure paths they exercise:
//
//   short ops     read_some/write_some transfer a prefix of the buffer —
//                 exercises the read_exact/write_all resume loops.
//   EINTR storms  a run of kInterrupted results before the operation
//                 proceeds — exercises the retry-on-interrupt paths.
//   bit flips     one bit of the transferred bytes is inverted —
//                 exercises checksum rejection (kBadChecksum) and the
//                 malformed-frame session teardown.
//   resets        after a byte budget the stream dies: reads see EOF,
//                 writes fail — exercises mid-frame truncation, client
//                 reconnect, and session kTransportError ends.
//   stalls        a caller-provided hook runs before the operation —
//                 tests block in it to trip deadlines deterministically.
//                 FaultyStream itself never sleeps (the roclk_lint
//                 `sleep` rule keeps wall-clock waits out of this TU).
//
// The decorator is intentionally one-sided: wrap the client end to test
// client resilience, the server end to test session hardening, or both
// with independent keys.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "roclk/common/stream_key.hpp"
#include "roclk/service/transport.hpp"

namespace roclk::service {

/// Fault rates are per *operation* (one read_some/write_some call), in
/// [0, 1].  All-zero rates make FaultyStream a transparent pass-through.
struct TransportFaultConfig {
  double short_op_rate{0.0};   // transfer only a prefix of the buffer
  double eintr_rate{0.0};      // inject a storm of kInterrupted results
  double bitflip_rate{0.0};    // invert one bit of the transferred bytes
  double stall_rate{0.0};      // run stall_hook before the operation
  /// Connection reset: once this many bytes have crossed the stream (in
  /// both directions combined) it dies — reads EOF, writes error.
  /// 0 disables the reset.
  std::uint64_t reset_after_bytes{0};
  /// Longest injected EINTR storm (uniform in [1, max]).
  std::uint32_t max_eintr_storm{3};
  /// Runs on the calling thread when a stall fires.  Tests install a
  /// hook that blocks past a deadline; default is a no-op.
  std::function<void()> stall_hook;
};

/// Injected-fault counters; every increment is schedule-driven and
/// therefore identical across runs with the same key.
struct FaultStats {
  std::uint64_t reads{0};
  std::uint64_t writes{0};
  std::uint64_t short_reads{0};
  std::uint64_t short_writes{0};
  std::uint64_t eintr_storms{0};
  std::uint64_t eintr_injected{0};
  std::uint64_t bit_flips{0};
  std::uint64_t stalls{0};
  std::uint64_t resets{0};  // operations refused after the byte budget

  [[nodiscard]] bool operator==(const FaultStats&) const = default;
};

/// Deterministic fault-injecting ByteStream decorator.  Owns the inner
/// stream.  Not internally synchronized: use one FaultyStream per
/// stream end, like the fd it wraps.
class FaultyStream final : public ByteStream {
 public:
  FaultyStream(std::unique_ptr<ByteStream> inner, StreamKey key,
               TransportFaultConfig config);

  [[nodiscard]] IoResult read_some(void* buffer,
                                   std::size_t bytes) override;
  [[nodiscard]] IoResult write_some(const void* buffer,
                                    std::size_t bytes) override;
  void close() override;
  [[nodiscard]] bool valid() const override;

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] const TransportFaultConfig& config() const {
    return config_;
  }

 private:
  /// Per-operation fault decisions, all drawn from one CounterRng so the
  /// schedule depends only on (key, direction, operation index).
  struct OpPlan {
    std::uint32_t eintr_storm{0};
    bool stall{false};
    std::size_t clamped_bytes{0};  // 0 = full buffer
    bool bitflip{false};
    std::uint64_t flip_byte{0};    // modulo transferred bytes
    std::uint32_t flip_bit{0};
  };
  [[nodiscard]] OpPlan plan_op(const StreamKey& direction_key,
                               std::uint64_t op_index,
                               std::size_t bytes) const;
  [[nodiscard]] bool reset_tripped() const;

  std::unique_ptr<ByteStream> inner_;
  StreamKey read_key_;
  StreamKey write_key_;
  TransportFaultConfig config_;
  FaultStats stats_;
  std::uint64_t read_ops_{0};
  std::uint64_t write_ops_{0};
  std::uint64_t total_bytes_{0};
  std::uint32_t pending_eintr_{0};  // remaining storm for the current op
};

/// Convenience: wraps an owned fd stream end in a FaultyStream — tests
/// compose `make_faulty_stream(std::move(end), key, cfg)` with Client's
/// ByteStream constructor.
[[nodiscard]] std::unique_ptr<FaultyStream> make_faulty_stream(
    FdStream stream, StreamKey key, TransportFaultConfig config);

}  // namespace roclk::service
