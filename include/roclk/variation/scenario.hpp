// Scenario factory: the harmonic perturbation environment of the paper's
// evaluation.
#pragma once

#include <memory>

#include "roclk/variation/sources.hpp"

namespace roclk::variation {

/// Paper section IV-A: homogeneous dynamic variation — a die-wide sinusoid
/// of amplitude `amplitude_stages / c` and period `period_stages`.
/// Amplitudes in the paper are expressed in stages (0.2 * c); this factory
/// takes the *fractional* amplitude directly.
[[nodiscard]] std::unique_ptr<VariationSource> make_harmonic_hodv(
    double fractional_amplitude, double period_stages, double phase = 0.0);

}  // namespace roclk::variation
