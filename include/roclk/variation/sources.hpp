// Concrete variation sources: one model per Table I cell.
//
//                 |  static                |  dynamic
//  ---------------+------------------------+---------------------------
//  homogeneous    |  die-to-die process    |  VRM ripple, room-temp
//                 |                        |  drift, off-chip droop
//  heterogeneous  |  within-die process,   |  SSN, IR drop, hotspots,
//                 |  random device (RND)   |  aging
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "roclk/common/stream_key.hpp"
#include "roclk/signal/waveform.hpp"
#include "roclk/variation/spatial_map.hpp"
#include "roclk/variation/variation.hpp"

namespace roclk::variation {

// ---------------------------------------------------------------- static /
// homogeneous

/// Die-to-die (D2D) process variation: one constant offset for the whole
/// die, drawn from N(0, sigma) at construction (seeded).
class DieToDieProcess final : public VariationSource {
 public:
  /// Offset drawn from the "d2d" child of `key`.
  DieToDieProcess(double sigma, StreamKey key);
  /// Raw-seed convenience: key = StreamKey{seed}.split("variation.d2d").
  DieToDieProcess(double sigma, std::uint64_t seed);
  /// Fixed, known offset (for tests and corner studies).
  static DieToDieProcess with_offset(double offset);

  [[nodiscard]] double at(double t, DiePoint p) const override;
  [[nodiscard]] TemporalClass temporal_class() const override {
    return TemporalClass::kStatic;
  }
  [[nodiscard]] SpatialClass spatial_class() const override {
    return SpatialClass::kHomogeneous;
  }
  [[nodiscard]] std::string name() const override {
    return "D2D process variation";
  }
  [[nodiscard]] std::unique_ptr<VariationSource> clone() const override;
  [[nodiscard]] double offset() const { return offset_; }

 private:
  explicit DieToDieProcess(double offset) : offset_{offset} {}
  double offset_;
};

// ---------------------------------------------------------------- static /
// heterogeneous

/// Within-die (WID) process variation: smooth spatially correlated field.
class WithinDieProcess final : public VariationSource {
 public:
  WithinDieProcess(double sigma, StreamKey key, int cells = 4,
                   int octaves = 2);
  /// Raw-seed convenience: key = StreamKey{seed}.split("variation.wid").
  WithinDieProcess(double sigma, std::uint64_t seed, int cells = 4,
                   int octaves = 2);

  [[nodiscard]] double at(double t, DiePoint p) const override;
  [[nodiscard]] TemporalClass temporal_class() const override {
    return TemporalClass::kStatic;
  }
  [[nodiscard]] SpatialClass spatial_class() const override {
    return SpatialClass::kHeterogeneous;
  }
  [[nodiscard]] std::string name() const override {
    return "WID process variation";
  }
  [[nodiscard]] std::unique_ptr<VariationSource> clone() const override;

 private:
  SpatialMap map_;
};

/// Device-to-device random (RND) process variation: spatially white,
/// uncorrelated from one position hash-bucket to the next.
class RandomDeviceProcess final : public VariationSource {
 public:
  /// Bucket (bx, by) draws from key.at(packed bucket index).
  RandomDeviceProcess(double sigma, StreamKey key, int buckets = 256);
  /// Raw-seed convenience: key = StreamKey{seed}.split("variation.rnd").
  RandomDeviceProcess(double sigma, std::uint64_t seed, int buckets = 256);

  [[nodiscard]] double at(double t, DiePoint p) const override;
  [[nodiscard]] TemporalClass temporal_class() const override {
    return TemporalClass::kStatic;
  }
  [[nodiscard]] SpatialClass spatial_class() const override {
    return SpatialClass::kHeterogeneous;
  }
  [[nodiscard]] std::string name() const override {
    return "RND process variation";
  }
  [[nodiscard]] std::unique_ptr<VariationSource> clone() const override;

 private:
  double sigma_;
  StreamKey key_;
  int buckets_;
};

// --------------------------------------------------------------- dynamic /
// homogeneous

/// Voltage-regulator-module ripple: a die-wide sinusoid.  This is the
/// paper's harmonic HoDV.
class VrmRipple final : public VariationSource {
 public:
  /// amplitude: fractional delay swing; period in stages.
  VrmRipple(double amplitude, double period, double phase = 0.0);

  [[nodiscard]] double at(double t, DiePoint p) const override;
  [[nodiscard]] TemporalClass temporal_class() const override {
    return TemporalClass::kDynamic;
  }
  [[nodiscard]] SpatialClass spatial_class() const override {
    return SpatialClass::kHomogeneous;
  }
  [[nodiscard]] std::string name() const override { return "VRM ripple"; }
  [[nodiscard]] std::unique_ptr<VariationSource> clone() const override;
  [[nodiscard]] double amplitude() const { return amplitude_; }
  [[nodiscard]] double period() const { return period_; }

 private:
  signal::SineWaveform wave_;
  double amplitude_;
  double period_;
};

/// Room-temperature drift: very slow die-wide sinusoidal wander.
class RoomTemperatureDrift final : public VariationSource {
 public:
  RoomTemperatureDrift(double amplitude, double period);

  [[nodiscard]] double at(double t, DiePoint p) const override;
  [[nodiscard]] TemporalClass temporal_class() const override {
    return TemporalClass::kDynamic;
  }
  [[nodiscard]] SpatialClass spatial_class() const override {
    return SpatialClass::kHomogeneous;
  }
  [[nodiscard]] std::string name() const override {
    return "room temperature drift";
  }
  [[nodiscard]] std::unique_ptr<VariationSource> clone() const override;

 private:
  signal::SineWaveform wave_;
};

/// Off-chip voltage drop: a single die-wide triangular droop event.  This
/// is the paper's single-event HoDV.
class OffChipVoltageDrop final : public VariationSource {
 public:
  /// amplitude: peak fractional slowdown; start/duration in stages.
  OffChipVoltageDrop(double amplitude, double start, double duration);

  [[nodiscard]] double at(double t, DiePoint p) const override;
  [[nodiscard]] TemporalClass temporal_class() const override {
    return TemporalClass::kDynamic;
  }
  [[nodiscard]] SpatialClass spatial_class() const override {
    return SpatialClass::kHomogeneous;
  }
  [[nodiscard]] std::string name() const override {
    return "off-chip voltage drop";
  }
  [[nodiscard]] std::unique_ptr<VariationSource> clone() const override;

 private:
  signal::TrianglePulseWaveform wave_;
};

// --------------------------------------------------------------- dynamic /
// heterogeneous

/// Simultaneous switching noise: broadband noise whose amplitude follows a
/// spatial activity profile.
class SimultaneousSwitchingNoise final : public VariationSource {
 public:
  /// Noise stream = key.split("noise"), activity profile =
  /// key.split("profile").
  SimultaneousSwitchingNoise(double sigma, double hold, StreamKey key);
  /// Raw-seed convenience: key = StreamKey{seed}.split("variation.ssn").
  SimultaneousSwitchingNoise(double sigma, double hold, std::uint64_t seed);

  [[nodiscard]] double at(double t, DiePoint p) const override;
  [[nodiscard]] TemporalClass temporal_class() const override {
    return TemporalClass::kDynamic;
  }
  [[nodiscard]] SpatialClass spatial_class() const override {
    return SpatialClass::kHeterogeneous;
  }
  [[nodiscard]] std::string name() const override { return "SSN"; }
  [[nodiscard]] std::unique_ptr<VariationSource> clone() const override;

 private:
  signal::HoldNoiseWaveform noise_;
  SpatialMap profile_;
};

/// IR drop: static spatial gradient (distance from the supply pads)
/// modulated by workload activity (square wave).
class IrDrop final : public VariationSource {
 public:
  IrDrop(double peak, double activity_period, DiePoint hot_corner,
         std::uint64_t seed);

  [[nodiscard]] double at(double t, DiePoint p) const override;
  [[nodiscard]] TemporalClass temporal_class() const override {
    return TemporalClass::kDynamic;
  }
  [[nodiscard]] SpatialClass spatial_class() const override {
    return SpatialClass::kHeterogeneous;
  }
  [[nodiscard]] std::string name() const override { return "IR drop"; }
  [[nodiscard]] std::unique_ptr<VariationSource> clone() const override;

 private:
  GaussianBump bump_;
  signal::SquareWaveform activity_;
};

/// Temperature hotspot: gaussian spatial bump with a slow thermal rise /
/// decay envelope (first-order thermal time constant).
class TemperatureHotspot final : public VariationSource {
 public:
  TemperatureHotspot(double peak, DiePoint centre, double sigma,
                     double onset, double time_constant);

  [[nodiscard]] double at(double t, DiePoint p) const override;
  [[nodiscard]] TemporalClass temporal_class() const override {
    return TemporalClass::kDynamic;
  }
  [[nodiscard]] SpatialClass spatial_class() const override {
    return SpatialClass::kHeterogeneous;
  }
  [[nodiscard]] std::string name() const override {
    return "temperature hotspot";
  }
  [[nodiscard]] std::unique_ptr<VariationSource> clone() const override;

 private:
  GaussianBump bump_;
  double onset_;
  double time_constant_;
};

/// Aging (NBTI/HCI-style): monotonic slowdown saturating at `saturation`,
/// with a spatially varying stress rate.
class Aging final : public VariationSource {
 public:
  /// Stress map = key.split("stress").
  Aging(double saturation, double time_constant, StreamKey key);
  /// Raw-seed convenience: key = StreamKey{seed}.split("variation.aging").
  Aging(double saturation, double time_constant, std::uint64_t seed);

  [[nodiscard]] double at(double t, DiePoint p) const override;
  [[nodiscard]] TemporalClass temporal_class() const override {
    return TemporalClass::kDynamic;
  }
  [[nodiscard]] SpatialClass spatial_class() const override {
    return SpatialClass::kHeterogeneous;
  }
  [[nodiscard]] std::string name() const override { return "aging"; }
  [[nodiscard]] std::unique_ptr<VariationSource> clone() const override;

 private:
  double saturation_;
  double time_constant_;
  SpatialMap stress_;
};

/// A train of off-chip droop events with Poisson arrivals: each event is a
/// triangular dip of random amplitude and duration.  Models a supply rail
/// shared with bursty loads.  Stateless in evaluation (events are derived
/// from the seed), so clones replay identically.
class DroopTrain final : public VariationSource {
 public:
  /// `rate` = expected events per `interval_stages`; amplitudes uniform in
  /// [0, peak]; durations uniform in [min_duration, max_duration].
  /// Slot `s` draws its event from key.at(s).
  DroopTrain(double peak, double mean_spacing_stages, double min_duration,
             double max_duration, StreamKey key);
  /// Raw-seed convenience:
  /// key = StreamKey{seed}.split("variation.droop_train").
  DroopTrain(double peak, double mean_spacing_stages, double min_duration,
             double max_duration, std::uint64_t seed);

  [[nodiscard]] double at(double t, DiePoint p) const override;
  [[nodiscard]] TemporalClass temporal_class() const override {
    return TemporalClass::kDynamic;
  }
  [[nodiscard]] SpatialClass spatial_class() const override {
    return SpatialClass::kHomogeneous;
  }
  [[nodiscard]] std::string name() const override {
    return "off-chip droop train";
  }
  [[nodiscard]] std::unique_ptr<VariationSource> clone() const override;

  /// Event parameters inside the window slot containing time t (for tests).
  struct Event {
    bool present{false};
    double start{0.0};
    double amplitude{0.0};
    double duration{0.0};
  };
  [[nodiscard]] Event event_in_slot(std::int64_t slot) const;

 private:
  double peak_;
  double spacing_;
  double min_duration_;
  double max_duration_;
  StreamKey key_;
};

// -------------------------------------------------------------- composite

/// Sum of sources.  Classified dynamic if any part is dynamic,
/// heterogeneous if any part is heterogeneous.
class CompositeVariation final : public VariationSource {
 public:
  CompositeVariation() = default;
  CompositeVariation(const CompositeVariation& other);
  CompositeVariation(CompositeVariation&&) noexcept = default;
  CompositeVariation& operator=(CompositeVariation&&) noexcept = default;

  CompositeVariation& add(std::unique_ptr<VariationSource> source);

  [[nodiscard]] double at(double t, DiePoint p) const override;
  [[nodiscard]] TemporalClass temporal_class() const override;
  [[nodiscard]] SpatialClass spatial_class() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<VariationSource> clone() const override;
  [[nodiscard]] std::size_t size() const { return parts_.size(); }

 private:
  std::vector<std::unique_ptr<VariationSource>> parts_;
};

}  // namespace roclk::variation
