// Deterministic fault taxonomy for the Fig. 4 loop.
//
// Silicon control loops fail at their seams, not in their transfer
// functions: a TDC (Drake et al., paper ref. [7]) latches a metastable
// outlier, a register drops a sample, an RO stage ages out, the CDN
// swallows an edge, the supply droops.  The reproduction models those
// upsets as *named, scheduled events* so every robustness experiment is
// exactly reproducible: a FaultSchedule is an explicit list of FaultEvents
// (built by hand or expanded from a 64-bit seed via common/rng), and both
// LoopSimulator and EnsembleSimulator replay it bit-for-bit.
//
// Fault sites and their magnitude semantics (all periods/readings in
// stages, consistent with the loop's signal conventions):
//
//   kind                 site         magnitude
//   -------------------  -----------  -----------------------------------
//   kTdcStuckAt          sensor mux   the reading tau is pinned at
//                                     `magnitude` (clamped to the chain's
//                                     [0, max_reading] like real codes)
//   kTdcDroppedSample    sensor mux   the capture register misses the
//                                     edge; the mux presents an empty
//                                     chain, tau = 0 (magnitude unused)
//   kTdcGlitch           sensor mux   metastable outlier: `magnitude` is
//                                     ADDED to the true reading, then
//                                     re-clamped to [0, max_reading]
//   kRoStageFailure      oscillator   step change of the l_RO -> period
//                                     mapping: T_gen gains `magnitude`
//                                     extra stages while active
//   kCdnDeliveryDrop     clock tree   a delivered edge is swallowed; the
//                                     leaves observe a doubled period for
//                                     each faulted cycle (magnitude
//                                     unused)
//   kVoltageDroop        whole die    supply step: `magnitude` stages are
//                                     added to BOTH e_ro and e_tdc (the
//                                     homogeneous slow-down convention:
//                                     positive e = slower silicon)
//
// Concurrent sensor faults resolve with the precedence
// stuck-at > dropped-sample > glitch (a pinned mux output masks
// everything downstream of it).  Overlapping events of one additive kind
// (glitch, RO step, droop) sum.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "roclk/common/status.hpp"
#include "roclk/common/stream_key.hpp"

namespace roclk::fault {

enum class FaultKind : std::uint8_t {
  kTdcStuckAt,
  kTdcDroppedSample,
  kTdcGlitch,
  kRoStageFailure,
  kCdnDeliveryDrop,
  kVoltageDroop,
};

inline constexpr std::size_t kFaultKindCount = 6;

[[nodiscard]] constexpr const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTdcStuckAt:
      return "tdc-stuck-at";
    case FaultKind::kTdcDroppedSample:
      return "tdc-dropped-sample";
    case FaultKind::kTdcGlitch:
      return "tdc-glitch";
    case FaultKind::kRoStageFailure:
      return "ro-stage-failure";
    case FaultKind::kCdnDeliveryDrop:
      return "cdn-delivery-drop";
    case FaultKind::kVoltageDroop:
      return "voltage-droop";
  }
  return "?";
}

/// One scheduled upset.  Active on cycles
/// [start_cycle, start_cycle + duration), or from start_cycle onward when
/// duration == kPermanent.
struct FaultEvent {
  static constexpr std::uint64_t kPermanent = 0;

  FaultKind kind{FaultKind::kTdcGlitch};
  std::uint64_t start_cycle{0};
  std::uint64_t duration{1};  // cycles; kPermanent = until reset
  double magnitude{0.0};      // kind-specific, see the table above

  [[nodiscard]] bool operator==(const FaultEvent& other) const = default;
  [[nodiscard]] bool permanent() const { return duration == kPermanent; }
  /// True on cycles the event is active.
  [[nodiscard]] bool active_at(std::uint64_t cycle) const {
    return cycle >= start_cycle &&
           (permanent() || cycle - start_cycle < duration);
  }
};

/// Parameter ranges for seeded random schedule generation.  Magnitudes are
/// drawn uniformly from the per-kind closed interval; start cycles
/// uniformly from [min_start, horizon); durations uniformly from
/// [1, max_duration].
struct RandomFaultSpec {
  std::uint64_t horizon_cycles{4000};
  std::uint64_t min_start{0};
  std::uint64_t max_duration{64};
  std::size_t event_count{4};
  /// Kinds eligible for generation; empty = all six.
  std::vector<FaultKind> kinds{};
  double stuck_min{0.0}, stuck_max{192.0};
  double glitch_min{-64.0}, glitch_max{64.0};
  double ro_step_min{-8.0}, ro_step_max{8.0};
  double droop_min{0.0}, droop_max{16.0};
};

/// An immutable-once-built, sorted list of FaultEvents.  The runtime
/// cursor that replays it lives in fault/injector.hpp.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// Validates and appends one event (events may be added in any order;
  /// the schedule keeps itself sorted by start cycle).
  FaultSchedule& add(const FaultEvent& event);

  /// Rejects non-finite magnitudes, negative stuck readings, and
  /// magnitude-free kinds carrying a magnitude that would be ignored
  /// silently.
  [[nodiscard]] static Status validate_event(const FaultEvent& event);

  /// Expands (key, spec) into a deterministic schedule.  Event i draws
  /// its parameters from the indexed substream key.at(i), so the schedule
  /// is a pure function of (key, spec) on every platform and the first k
  /// events are stable as event_count grows.
  [[nodiscard]] static FaultSchedule random(StreamKey key,
                                            const RandomFaultSpec& spec);
  /// Raw-seed convenience: key = StreamKey{seed}.split("fault.schedule").
  [[nodiscard]] static FaultSchedule random(std::uint64_t seed,
                                            const RandomFaultSpec& spec);

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::span<const FaultEvent> events() const { return events_; }

  [[nodiscard]] bool operator==(const FaultSchedule& other) const = default;

 private:
  std::vector<FaultEvent> events_;  // sorted by (start_cycle, insertion)
};

}  // namespace roclk::fault
