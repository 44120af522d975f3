#include "roclk/common/stream_key.hpp"

#include <cmath>
#include <numbers>

#include "roclk/common/status.hpp"

namespace roclk {

double CounterRng::normal() {
  if (have_spare_) {
    have_spare_ = false;
    return spare_r_ * std::sin(spare_theta_);
  }
  // Box-Muller: a fixed two-draw transform (unlike Marsaglia's polar
  // method there is no rejection loop, so every normal pair advances the
  // counter by exactly 2 — the draw-stability the sharded Monte-Carlo
  // contract requires).  1 - uniform() keeps the log argument in (0, 1].
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  // The spare r * sin(theta) is computed only when it is drawn: most
  // callers draw one normal from a fresh instance.
  spare_r_ = r;
  spare_theta_ = theta;
  have_spare_ = true;
  return r * std::cos(theta);
}

}  // namespace roclk
