// Ring oscillator model.
//
// A ring oscillator is a closed chain of an odd number of inverting stages;
// its period is the time a transition needs to travel twice around the
// ring.  Expressed in elementary stage delays, a ring of l_RO stages under
// fractional delay variation v oscillates with period
//   T = l_RO * (1 + v)      [multiplicative, physical model]
// which the paper linearises additively as
//   T = l_RO + e,   e = c * v [additive, discrete control model]
// because perturbation amplitudes stay modest (20%) and l_RO ~ c.
// RingOscillator exposes both forms; the discrete loop simulator uses the
// additive one (matching the paper's eqs. 4-5 exactly) and the event-driven
// simulator the multiplicative one.
//
// The length (number of stages) is the control input.  Hardware constrains
// it to an integer in [min_length, max_length]; length changes take effect
// on the *next* period (the current transition still travels the old
// chain), which the loop simulators model as the RO's one-cycle delay.
#pragma once

#include <algorithm>
#include <cstdint>

#include "roclk/common/status.hpp"
#include "roclk/variation/variation.hpp"

namespace roclk::osc {

struct RingOscillatorConfig {
  std::int64_t min_length{8};
  std::int64_t max_length{512};
  std::int64_t initial_length{64};
  variation::DiePoint location{0.5, 0.5};  // where the RO sits on the die
  /// Stage delay in seconds, only for translating results into ns (the
  /// paper's worked examples use c = 64 stages <=> 1 ns).
  double stage_delay_seconds{1e-9 / 64.0};
};

class RingOscillator {
 public:
  explicit RingOscillator(RingOscillatorConfig config = {});

  /// Validates a configuration without constructing.
  static Status validate(const RingOscillatorConfig& config);

  [[nodiscard]] std::int64_t length() const { return length_; }
  [[nodiscard]] const RingOscillatorConfig& config() const { return config_; }

  /// Requests a new length; clamps into [min, max].  Returns the actual
  /// length after clamping.
  std::int64_t set_length(std::int64_t requested) {
    const std::int64_t clamped =
        std::clamp(requested, config_.min_length, config_.max_length);
    saturated_ = clamped != requested;
    length_ = clamped;
    return length_;
  }

  /// True if the last set_length had to clamp.
  [[nodiscard]] bool saturated() const { return saturated_; }

  /// Period in nominal-stage units under fractional variation v
  /// (multiplicative, physical).
  [[nodiscard]] double period_stages_physical(double v) const {
    return static_cast<double>(length_) * (1.0 + v);
  }

  /// Period in nominal-stage units with an additive perturbation e given in
  /// stages (the paper's linearised model: T = l_RO + e).
  [[nodiscard]] double period_stages_additive(double e_stages) const {
    return static_cast<double>(length_) + e_stages;
  }

  /// Period in seconds under fractional variation v.
  [[nodiscard]] double period_seconds(double v) const {
    return period_stages_physical(v) * config_.stage_delay_seconds;
  }

  /// Samples the variation source at the RO's own die location: the RO is
  /// a *point sensor* (paper section II-A).
  [[nodiscard]] double local_variation(
      const variation::VariationSource& source, double t) const {
    return source.at(t, config_.location);
  }

 private:
  RingOscillatorConfig config_;
  std::int64_t length_;
  bool saturated_{false};
};

}  // namespace roclk::osc
