#include "roclk/osc/ring_oscillator.hpp"

#include <algorithm>
#include <sstream>

namespace roclk::osc {

Status RingOscillator::validate(const RingOscillatorConfig& config) {
  if (config.min_length < 1) {
    return Status::invalid_argument("min_length must be >= 1");
  }
  if (config.max_length < config.min_length) {
    return Status::invalid_argument("max_length must be >= min_length");
  }
  if (config.initial_length < config.min_length ||
      config.initial_length > config.max_length) {
    std::ostringstream os;
    os << "initial_length " << config.initial_length << " outside ["
       << config.min_length << ", " << config.max_length << "]";
    return Status::invalid_argument(os.str());
  }
  if (config.stage_delay_seconds <= 0.0) {
    return Status::invalid_argument("stage delay must be positive");
  }
  return Status::ok();
}

RingOscillator::RingOscillator(RingOscillatorConfig config)
    : config_{config}, length_{config.initial_length} {
  ROCLK_CHECK_OK(validate(config_));
}

}  // namespace roclk::osc
