// Continuous-time waveform primitives used as perturbation shapes.
//
// The paper drives its evaluation with two canonical homogeneous dynamic
// variations: a harmonic (sine) perturbation nu(t) = nu0 sin(2 pi t / T + phi)
// and a single triangular event of duration T and amplitude nu0 (section
// II-A).  Waveform models both, plus the auxiliary shapes the variation
// library uses (square waves, sample-and-hold noise).
//
// Waveforms are functions of continuous time measured in *stages* so they
// can be sampled both by the discrete-time loop simulator (once per clock
// period) and by the event-driven edge simulator (at arbitrary instants).
#pragma once

#include <memory>

#include "roclk/common/status.hpp"
#include "roclk/common/stream_key.hpp"

namespace roclk::signal {

/// Interface: value of the waveform at absolute time t (in stages).
class Waveform {
 public:
  virtual ~Waveform() = default;
  [[nodiscard]] virtual double at(double t) const = 0;
  [[nodiscard]] virtual std::unique_ptr<Waveform> clone() const = 0;
};

/// Identically zero.
class ZeroWaveform final : public Waveform {
 public:
  [[nodiscard]] double at(double) const override { return 0.0; }
  [[nodiscard]] std::unique_ptr<Waveform> clone() const override {
    return std::make_unique<ZeroWaveform>(*this);
  }
};

/// Constant value.
class ConstantWaveform final : public Waveform {
 public:
  explicit ConstantWaveform(double value) : value_{value} {}
  [[nodiscard]] double at(double) const override { return value_; }
  [[nodiscard]] std::unique_ptr<Waveform> clone() const override {
    return std::make_unique<ConstantWaveform>(*this);
  }

 private:
  double value_;
};

/// amplitude * sin(2 pi t / period + phase): the paper's periodic HoDV.
class SineWaveform final : public Waveform {
 public:
  SineWaveform(double amplitude, double period, double phase = 0.0);
  [[nodiscard]] double at(double t) const override;
  [[nodiscard]] std::unique_ptr<Waveform> clone() const override {
    return std::make_unique<SineWaveform>(*this);
  }
  [[nodiscard]] double amplitude() const { return amplitude_; }
  [[nodiscard]] double period() const { return period_; }

 private:
  double amplitude_;
  double period_;
  double phase_;
};

/// Single triangular event starting at `start`, duration `duration`, peak
/// `amplitude` at the midpoint, zero elsewhere: the paper's single-event
/// HoDV (fast supply droop).
class TrianglePulseWaveform final : public Waveform {
 public:
  TrianglePulseWaveform(double amplitude, double start, double duration);
  [[nodiscard]] double at(double t) const override;
  [[nodiscard]] std::unique_ptr<Waveform> clone() const override {
    return std::make_unique<TrianglePulseWaveform>(*this);
  }

 private:
  double amplitude_;
  double start_;
  double duration_;
};

/// Square wave (50% duty): models on/off workload power steps.
class SquareWaveform final : public Waveform {
 public:
  SquareWaveform(double amplitude, double period, double phase = 0.0);
  [[nodiscard]] double at(double t) const override;
  [[nodiscard]] std::unique_ptr<Waveform> clone() const override {
    return std::make_unique<SquareWaveform>(*this);
  }

 private:
  double amplitude_;
  double period_;
  double phase_;
};

/// Sample-and-hold Gaussian noise: a new normal value every `hold` stages,
/// deterministic in the seed.  Models broadband supply noise (SSN).
class HoldNoiseWaveform final : public Waveform {
 public:
  /// Hold-slot `s` draws from key.at(s) — a pure per-slot substream, so
  /// evaluation order is irrelevant.
  HoldNoiseWaveform(double stddev, double hold, StreamKey key);
  [[nodiscard]] double at(double t) const override;
  [[nodiscard]] std::unique_ptr<Waveform> clone() const override {
    return std::make_unique<HoldNoiseWaveform>(*this);
  }

 private:
  double stddev_;
  double hold_;
  StreamKey key_;
};

}  // namespace roclk::signal
