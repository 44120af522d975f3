// Control design constraints and closed-loop analysis (paper section III-A).
//
// For the loop of Fig. 4 with controller H(z) = N(z)/D(z) and CDN delay M,
// the closed-loop responses are
//   H_lRO(z)   = N / (D + N z^{-M-2})     (eq. 4)
//   H_delta(z) = D / (D + N z^{-M-2})     (eq. 5)
// and demanding (via the final value theorem) that a step perturbation is
// eventually cancelled yields
//   N(1) != 0  and  D(1) = 0 .            (eq. 8)
// This header checks that constraint for arbitrary controllers and maps
// the closed-loop stability boundary as a function of M.
#pragma once

#include <cstddef>
#include <optional>

#include "roclk/common/status.hpp"
#include "roclk/signal/jury.hpp"
#include "roclk/signal/polynomial.hpp"
#include "roclk/signal/transfer_function.hpp"

namespace roclk::control {

struct ConstraintReport {
  bool numerator_ok{false};    // N(1) != 0
  bool denominator_ok{false};  // D(1) = 0
  double n_at_one{0.0};
  double d_at_one{0.0};
  [[nodiscard]] bool satisfied() const {
    return numerator_ok && denominator_ok;
  }
};

/// Checks eq. 8 on a controller given as N(z), D(z).
[[nodiscard]] ConstraintReport check_paper_constraints(
    const signal::Polynomial& numerator, const signal::Polynomial& denominator,
    double tol = 1e-9);

/// Closed-loop characteristic polynomial D(z) + N(z) z^{-M-2}, returned in
/// positive powers of z (highest first) for Jury analysis.
[[nodiscard]] std::vector<double> closed_loop_characteristic(
    const signal::Polynomial& numerator, const signal::Polynomial& denominator,
    std::size_t cdn_delay_m);

/// Stability of the closed loop for a given M.  The loop is type-1 by
/// construction (D(1) = 0 puts a closed... an open-loop pole at z = 1); we
/// report the stability of the closed-loop characteristic directly.
struct ClosedLoopStability {
  bool stable{false};
  double spectral_radius{0.0};  // largest closed-loop pole magnitude
};
[[nodiscard]] Result<ClosedLoopStability> closed_loop_stability(
    const signal::Polynomial& numerator, const signal::Polynomial& denominator,
    std::size_t cdn_delay_m);

/// The delay margin.  Searches M = 0, 1, ..., max_m and stops at the first
/// unstable M after a stable one, returning the last stable M; unstable M
/// before the first stable one do not stop the search.  Returns nullopt
/// if no M in [0, max_m] is stable.  Each M is decided by
/// signal::jury_test on closed_loop_characteristic; tests hold that
/// verdict to closed_loop_stability's roots.
[[nodiscard]] std::optional<std::size_t> max_stable_cdn_delay(
    const signal::Polynomial& numerator, const signal::Polynomial& denominator,
    std::size_t max_m = 256);

}  // namespace roclk::control
