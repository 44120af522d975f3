// Runtime set-point tuning (paper section V):
//   "The set-point value could be varied as function of the timing errors
//    during a time window and/or the performance necessities."
//
// The closed loop pins the TDC reading tau at the set-point c, but the
// *correct* c is unknown at design time: the pipeline fails when tau drops
// below its logic depth L (in stages), so c must sit at L plus enough
// headroom for the loop's ripple — and no more, since every extra stage of
// c is lost performance.  The paper therefore requires the pipeline to have
// "at least, error detection capacities" (Razor-style): real timing errors
// are observable, recoverable events.
//
// SetpointGovernor implements the sketched policy as an
// additive-increase / additive-decrease window controller:
//   * any real error in the window   -> raise c by `step_up` (back off)
//   * error-free window with at least `headroom` + `step_down` of slack
//     above L at the *worst* observed reading -> lower c by `step_down`
//   * otherwise hold.
#pragma once

#include <cstddef>
#include <cstdint>

#include "roclk/common/status.hpp"

namespace roclk::control {

struct GovernorConfig {
  double initial_setpoint{70.0};
  double logic_depth{64.0};   // L: stages the pipeline needs per period
  double min_setpoint{8.0};
  double max_setpoint{512.0};
  std::size_t window{256};    // cycles per decision epoch
  double step_up{2.0};        // back-off on error
  double step_down{1.0};      // creep toward performance
  double headroom{2.0};       // slack (stages) to keep above L
};

class SetpointGovernor {
 public:
  explicit SetpointGovernor(GovernorConfig config = {});

  static Status validate(const GovernorConfig& config);

  /// Feeds one cycle's TDC reading; returns the set-point to use for the
  /// *next* cycle.  A reading below the logic depth counts as a real,
  /// detected-and-replayed timing error.
  double observe(double tau);

  [[nodiscard]] double setpoint() const { return setpoint_; }
  [[nodiscard]] std::size_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t total_errors() const { return total_errors_; }
  [[nodiscard]] const GovernorConfig& config() const { return config_; }

 private:
  GovernorConfig config_;
  double setpoint_;
  std::size_t cycles_in_window_{0};
  std::size_t errors_in_window_{0};
  double worst_tau_in_window_{0.0};
  std::size_t epochs_{0};
  std::uint64_t total_errors_{0};
};

}  // namespace roclk::control
