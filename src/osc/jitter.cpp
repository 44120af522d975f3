#include "roclk/osc/jitter.hpp"

#include "roclk/common/status.hpp"

namespace roclk::osc {

JitterModel::JitterModel(JitterConfig config)
    : config_{config}, rng_{StreamKey{config.seed}.split("osc.jitter")} {
  ROCLK_CHECK(config_.white_sigma >= 0.0, "white sigma cannot be negative");
  ROCLK_CHECK(config_.walk_sigma >= 0.0, "walk sigma cannot be negative");
  ROCLK_CHECK(config_.walk_leak >= 0.0 && config_.walk_leak <= 1.0,
                "walk leak must be in [0, 1]");
}

double JitterModel::sample() {
  double value = 0.0;
  if (config_.white_sigma > 0.0) {
    value += rng_.normal(0.0, config_.white_sigma);
  }
  if (config_.walk_sigma > 0.0) {
    walk_ = config_.walk_leak * walk_ + rng_.normal(0.0, config_.walk_sigma);
    value += walk_;
  }
  return value;
}

void JitterModel::reset() {
  rng_.seek(0);
  walk_ = 0.0;
}

}  // namespace roclk::osc
