// Closed-form results of paper section II-A (eqs. 1-3 and the benefit
// boundaries around Fig. 2).
//
// Under a homogeneous dynamic variation nu(t), a free-running RO clock
// delivered through a CDN of delay t_clk mismatches the critical paths by
//   dnu(t, t_clk) = nu(t) - nu(t - t_clk)                       (eq. 1)
// whose worst case is, for the harmonic perturbation nu0 sin(2 pi t/T):
//   dnu_wc = 2 nu0 |sin(pi t_clk / T)|                          (eq. 2)
// and for a single triangular event of duration T and amplitude nu0:
//   dnu_wc = 2 nu0 t_clk / T   (t_clk/T <= 1/2),  nu0 otherwise (eq. 3)
#pragma once

#include "roclk/signal/waveform.hpp"

namespace roclk::analysis {

/// eq. 1 evaluated pointwise on an arbitrary perturbation waveform.
[[nodiscard]] double cdn_mismatch(const signal::Waveform& nu, double t,
                                  double t_clk);

/// eq. 2: worst-case mismatch for a harmonic HoDV.
[[nodiscard]] double harmonic_worst_mismatch(double t_clk, double period,
                                             double amplitude);

/// eq. 3: worst-case mismatch for a single triangular event.
[[nodiscard]] double single_event_worst_mismatch(double t_clk,
                                                 double duration,
                                                 double amplitude);

/// Paper section II-A.1 boundary: does a free-running RO *reduce* the
/// safety margin under a harmonic HoDV for this t_clk?  True when
/// t_clk < T/6 or (n - 1/6) T < t_clk < (n + 1/6) T for integer n >= 1
/// (equivalently: 2|sin(pi t_clk/T)| < 1).
[[nodiscard]] bool harmonic_ro_beneficial(double t_clk, double period);

/// Numerical worst case of eq. 1 over a full period of an arbitrary
/// periodic waveform (grid search with `samples` points); validates eq. 2.
[[nodiscard]] double numeric_worst_mismatch(const signal::Waveform& nu,
                                            double period, double t_clk,
                                            std::size_t samples = 4096);

}  // namespace roclk::analysis
