#include "roclk/signal/waveform.hpp"

#include <cmath>

#include "roclk/common/math.hpp"

namespace roclk::signal {

SineWaveform::SineWaveform(double amplitude, double period, double phase)
    : amplitude_{amplitude}, period_{period}, phase_{phase} {
  ROCLK_CHECK(period > 0.0, "sine period must be positive");
}

double SineWaveform::at(double t) const {
  return amplitude_ * std::sin(kTwoPi * t / period_ + phase_);
}

TrianglePulseWaveform::TrianglePulseWaveform(double amplitude, double start,
                                             double duration)
    : amplitude_{amplitude}, start_{start}, duration_{duration} {
  ROCLK_CHECK(duration > 0.0, "pulse duration must be positive");
}

double TrianglePulseWaveform::at(double t) const {
  const double x = (t - start_) / duration_;
  if (x <= 0.0 || x >= 1.0) return 0.0;
  return amplitude_ * (x < 0.5 ? 2.0 * x : 2.0 * (1.0 - x));
}

SquareWaveform::SquareWaveform(double amplitude, double period, double phase)
    : amplitude_{amplitude}, period_{period}, phase_{phase} {
  ROCLK_CHECK(period > 0.0, "square period must be positive");
}

double SquareWaveform::at(double t) const {
  const double cycle = positive_fmod(t / period_ + phase_, 1.0);
  return cycle < 0.5 ? amplitude_ : -amplitude_;
}

HoldNoiseWaveform::HoldNoiseWaveform(double stddev, double hold,
                                     StreamKey key)
    : stddev_{stddev}, hold_{hold}, key_{key} {
  ROCLK_CHECK(hold > 0.0, "hold interval must be positive");
}

double HoldNoiseWaveform::at(double t) const {
  // Stateless: each hold slot owns the substream key.at(slot) so
  // evaluation order is irrelevant (the edge simulator samples at
  // non-monotonic instants during replay).
  const auto slot = static_cast<std::int64_t>(std::floor(t / hold_));
  CounterRng rng{key_.at(static_cast<std::uint64_t>(slot))};
  return rng.normal(0.0, stddev_);
}

}  // namespace roclk::signal
