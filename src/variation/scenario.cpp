#include "roclk/variation/scenario.hpp"

namespace roclk::variation {

std::unique_ptr<VariationSource> make_harmonic_hodv(
    double fractional_amplitude, double period_stages, double phase) {
  return std::make_unique<VrmRipple>(fractional_amplitude, period_stages,
                                     phase);
}

}  // namespace roclk::variation
