// Frequency-domain helpers: Goertzel single-bin tone measurement, and the
// direct DFT the tests check it against.
//
// Used by the analysis module to verify that an adaptive clock attenuates
// the perturbation tone (the residual timing error spectrum at the HoDV
// frequency) and by extension benches that characterise loop bandwidth.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace roclk::signal {

/// Full DFT via direct evaluation (any size; O(n^2), fine for traces).
[[nodiscard]] std::vector<std::complex<double>> dft(std::span<const double> xs);

/// Goertzel algorithm: the DFT coefficient at one normalized frequency
/// f (cycles/sample, in [0, 0.5]).
[[nodiscard]] std::complex<double> goertzel(std::span<const double> xs,
                                            double frequency);

/// Amplitude of the tone at normalized frequency f, i.e. 2|X(f)|/N (exact
/// for a pure sinusoid away from DC/Nyquist).
[[nodiscard]] double tone_amplitude(std::span<const double> xs,
                                    double frequency);

}  // namespace roclk::signal
