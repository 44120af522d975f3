#include "roclk/common/rng.hpp"

#include <cmath>

#include "roclk/common/status.hpp"

namespace roclk {

double Xoshiro256::normal() {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  // Marsaglia polar method: rejection-sample a point in the unit disc.
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  have_spare_ = true;
  return u * factor;
}

}  // namespace roclk
