#include "roclk/control/setpoint_governor.hpp"

#include <algorithm>
#include <limits>

namespace roclk::control {

Status SetpointGovernor::validate(const GovernorConfig& config) {
  if (config.logic_depth <= 0.0) {
    return Status::invalid_argument("logic depth must be positive");
  }
  if (config.min_setpoint <= 0.0 ||
      config.max_setpoint < config.min_setpoint) {
    return Status::invalid_argument("invalid set-point range");
  }
  if (config.initial_setpoint < config.min_setpoint ||
      config.initial_setpoint > config.max_setpoint) {
    return Status::invalid_argument("initial set-point outside range");
  }
  if (config.window == 0) {
    return Status::invalid_argument("window must be at least one cycle");
  }
  if (config.step_up <= 0.0 || config.step_down <= 0.0) {
    return Status::invalid_argument("steps must be positive");
  }
  if (config.headroom < 0.0) {
    return Status::invalid_argument("headroom cannot be negative");
  }
  return Status::ok();
}

SetpointGovernor::SetpointGovernor(GovernorConfig config)
    : config_{config}, setpoint_{config.initial_setpoint} {
  ROCLK_CHECK_OK(validate(config_));
  worst_tau_in_window_ = std::numeric_limits<double>::infinity();
}

double SetpointGovernor::observe(double tau) {
  ++cycles_in_window_;
  worst_tau_in_window_ = std::min(worst_tau_in_window_, tau);
  if (tau < config_.logic_depth) {
    ++errors_in_window_;
    ++total_errors_;
  }

  if (cycles_in_window_ >= config_.window) {
    ++epochs_;
    if (errors_in_window_ > 0) {
      setpoint_ += config_.step_up;
    } else if (worst_tau_in_window_ - config_.logic_depth >=
               config_.headroom + config_.step_down) {
      setpoint_ -= config_.step_down;
    }
    setpoint_ =
        std::clamp(setpoint_, config_.min_setpoint, config_.max_setpoint);
    cycles_in_window_ = 0;
    errors_in_window_ = 0;
    worst_tau_in_window_ = std::numeric_limits<double>::infinity();
  }
  return setpoint_;
}

}  // namespace roclk::control
