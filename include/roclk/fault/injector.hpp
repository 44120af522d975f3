// Runtime replay of a FaultSchedule.
//
// FaultInjector is the per-run cursor a simulator consults once per cycle:
// begin_cycle(n) folds every event active on cycle n into a flat
// CycleFaults struct the loop applies at its fault sites.  The cursor is
// O(active events) per cycle and allocation-free after construction, so a
// fault-free lane pays one branch (`injector == nullptr`) and a faulted
// lane a handful of comparisons.
//
// Cycles are absolute: they continue across successive run()/run_batch()
// calls and rewind only on reset(), mirroring the simulators' own state.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "roclk/fault/fault.hpp"

namespace roclk::fault {

/// Everything the loop needs to know about the current cycle's upsets.
/// Sensor-fault precedence (stuck > dropped > glitch) is already resolved
/// by the injector; additive kinds are already summed.
struct CycleFaults {
  bool any{false};
  bool tau_stuck{false};
  double tau_stuck_value{0.0};
  bool tau_dropped{false};
  double tau_glitch{0.0};  // additive outlier; 0 = none
  double ro_offset{0.0};   // stages added to the generated period
  bool cdn_drop{false};
  double droop{0.0};       // stages added to e_ro and e_tdc
};

class FaultInjector {
 public:
  /// Copies the schedule's events (the injector outlives no simulator,
  /// but the schedule may be a temporary).
  explicit FaultInjector(const FaultSchedule& schedule);

  /// Rewinds to cycle 0 with no active events.
  void reset();

  /// Faults for cycle `cycle`.  Cycles must be non-decreasing between
  /// resets; a caller may skip cycles, and the next call catches up.
  [[nodiscard]] CycleFaults begin_cycle(std::uint64_t cycle);

  /// next_start_cycle() once every event has started.
  static constexpr std::uint64_t kNoPendingEvent =
      std::numeric_limits<std::uint64_t>::max();

  /// Start cycle of the earliest event begin_cycle has not started yet,
  /// or kNoPendingEvent.  After a begin_cycle that reported no fault,
  /// no cycle before this one can report a fault.
  [[nodiscard]] std::uint64_t next_start_cycle() const {
    return next_ < schedule_.size() ? schedule_.events()[next_].start_cycle
                                    : kNoPendingEvent;
  }

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }

 private:
  FaultSchedule schedule_;
  std::size_t next_{0};                // first event not yet started
  std::vector<std::size_t> active_;    // indices of in-flight events
};

}  // namespace roclk::fault
