#include "roclk/variation/sources.hpp"

#include <cmath>
#include <sstream>

#include "roclk/common/status.hpp"
#include "roclk/common/stream_key.hpp"

namespace roclk::variation {

// ------------------------------------------------------- DieToDieProcess

DieToDieProcess::DieToDieProcess(double sigma, StreamKey key) {
  CounterRng rng{key.split("d2d")};
  offset_ = rng.normal(0.0, sigma);
}

DieToDieProcess::DieToDieProcess(double sigma, std::uint64_t seed)
    : DieToDieProcess{sigma, StreamKey{seed}.split("variation.d2d")} {}

DieToDieProcess DieToDieProcess::with_offset(double offset) {
  return DieToDieProcess{offset};
}

double DieToDieProcess::at(double /*t*/, DiePoint /*p*/) const {
  return offset_;
}

std::unique_ptr<VariationSource> DieToDieProcess::clone() const {
  return std::make_unique<DieToDieProcess>(*this);
}

// ------------------------------------------------------ WithinDieProcess

WithinDieProcess::WithinDieProcess(double sigma, StreamKey key, int cells,
                                   int octaves)
    : map_{key, sigma, cells, octaves} {}

WithinDieProcess::WithinDieProcess(double sigma, std::uint64_t seed,
                                   int cells, int octaves)
    : WithinDieProcess{sigma, StreamKey{seed}.split("variation.wid"), cells,
                       octaves} {}

double WithinDieProcess::at(double /*t*/, DiePoint p) const {
  return map_.at(p);
}

std::unique_ptr<VariationSource> WithinDieProcess::clone() const {
  return std::make_unique<WithinDieProcess>(*this);
}

// --------------------------------------------------- RandomDeviceProcess

RandomDeviceProcess::RandomDeviceProcess(double sigma, StreamKey key,
                                         int buckets)
    : sigma_{sigma}, key_{key}, buckets_{buckets} {
  ROCLK_CHECK(buckets >= 1, "need at least one bucket");
}

RandomDeviceProcess::RandomDeviceProcess(double sigma, std::uint64_t seed,
                                         int buckets)
    : RandomDeviceProcess{sigma, StreamKey{seed}.split("variation.rnd"),
                          buckets} {}

double RandomDeviceProcess::at(double /*t*/, DiePoint p) const {
  // Spatially white: each bucket of the die owns its indexed substream.
  const auto bx = static_cast<std::uint64_t>(p.x * buckets_);
  const auto by = static_cast<std::uint64_t>(p.y * buckets_);
  CounterRng rng{key_.at(bx | (by << 32))};
  return rng.normal(0.0, sigma_);
}

std::unique_ptr<VariationSource> RandomDeviceProcess::clone() const {
  return std::make_unique<RandomDeviceProcess>(*this);
}

// -------------------------------------------------------------- VrmRipple

VrmRipple::VrmRipple(double amplitude, double period, double phase)
    : wave_{amplitude, period, phase},
      amplitude_{amplitude},
      period_{period} {}

double VrmRipple::at(double t, DiePoint /*p*/) const { return wave_.at(t); }

std::unique_ptr<VariationSource> VrmRipple::clone() const {
  return std::make_unique<VrmRipple>(*this);
}

// --------------------------------------------------- RoomTemperatureDrift

RoomTemperatureDrift::RoomTemperatureDrift(double amplitude, double period)
    : wave_{amplitude, period} {}

double RoomTemperatureDrift::at(double t, DiePoint /*p*/) const {
  return wave_.at(t);
}

std::unique_ptr<VariationSource> RoomTemperatureDrift::clone() const {
  return std::make_unique<RoomTemperatureDrift>(*this);
}

// ----------------------------------------------------- OffChipVoltageDrop

OffChipVoltageDrop::OffChipVoltageDrop(double amplitude, double start,
                                       double duration)
    : wave_{amplitude, start, duration} {}

double OffChipVoltageDrop::at(double t, DiePoint /*p*/) const {
  return wave_.at(t);
}

std::unique_ptr<VariationSource> OffChipVoltageDrop::clone() const {
  return std::make_unique<OffChipVoltageDrop>(*this);
}

// ---------------------------------------------- SimultaneousSwitchingNoise

SimultaneousSwitchingNoise::SimultaneousSwitchingNoise(double sigma,
                                                       double hold,
                                                       StreamKey key)
    : noise_{sigma, hold, key.split("noise")},
      profile_{key.split("profile"), 0.5, 3, 2} {}

SimultaneousSwitchingNoise::SimultaneousSwitchingNoise(double sigma,
                                                       double hold,
                                                       std::uint64_t seed)
    : SimultaneousSwitchingNoise{
          sigma, hold, StreamKey{seed}.split("variation.ssn")} {}

double SimultaneousSwitchingNoise::at(double t, DiePoint p) const {
  // Activity profile shifts the local noise amplitude by up to ~50%.
  const double local_gain = 1.0 + profile_.at(p);
  return noise_.at(t) * local_gain;
}

std::unique_ptr<VariationSource> SimultaneousSwitchingNoise::clone() const {
  return std::make_unique<SimultaneousSwitchingNoise>(*this);
}

// ----------------------------------------------------------------- IrDrop

IrDrop::IrDrop(double peak, double activity_period, DiePoint hot_corner,
               std::uint64_t /*seed*/)
    : bump_{hot_corner, 0.35, peak}, activity_{0.5, activity_period} {}

double IrDrop::at(double t, DiePoint p) const {
  // Activity square wave in [0, 1]: full drop when active, none when idle.
  const double duty = 0.5 + activity_.at(t);  // 0 or 1
  return bump_.at(p) * duty;
}

std::unique_ptr<VariationSource> IrDrop::clone() const {
  return std::make_unique<IrDrop>(*this);
}

// ---------------------------------------------------- TemperatureHotspot

TemperatureHotspot::TemperatureHotspot(double peak, DiePoint centre,
                                       double sigma, double onset,
                                       double time_constant)
    : bump_{centre, sigma, peak}, onset_{onset}, time_constant_{time_constant} {
  ROCLK_CHECK(time_constant > 0.0, "thermal time constant must be positive");
}

double TemperatureHotspot::at(double t, DiePoint p) const {
  if (t <= onset_) return 0.0;
  const double envelope = 1.0 - std::exp(-(t - onset_) / time_constant_);
  return bump_.at(p) * envelope;
}

std::unique_ptr<VariationSource> TemperatureHotspot::clone() const {
  return std::make_unique<TemperatureHotspot>(*this);
}

// ------------------------------------------------------------------ Aging

Aging::Aging(double saturation, double time_constant, StreamKey key)
    : saturation_{saturation},
      time_constant_{time_constant},
      stress_{key.split("stress"), 0.3, 3, 2} {
  ROCLK_CHECK(time_constant > 0.0, "aging time constant must be positive");
}

Aging::Aging(double saturation, double time_constant, std::uint64_t seed)
    : Aging{saturation, time_constant,
            StreamKey{seed}.split("variation.aging")} {}

double Aging::at(double t, DiePoint p) const {
  if (t <= 0.0) return 0.0;
  // Local stress modulates how fast the device approaches saturation.
  const double rate = std::max(0.1, 1.0 + stress_.at(p));
  return saturation_ * (1.0 - std::exp(-t * rate / time_constant_));
}

std::unique_ptr<VariationSource> Aging::clone() const {
  return std::make_unique<Aging>(*this);
}

// ------------------------------------------------------------ DroopTrain

DroopTrain::DroopTrain(double peak, double mean_spacing_stages,
                       double min_duration, double max_duration,
                       StreamKey key)
    : peak_{peak},
      spacing_{mean_spacing_stages},
      min_duration_{min_duration},
      max_duration_{max_duration},
      key_{key} {
  ROCLK_CHECK(peak >= 0.0, "peak cannot be negative");
  ROCLK_CHECK(mean_spacing_stages > 0.0, "spacing must be positive");
  ROCLK_CHECK(min_duration > 0.0 && max_duration >= min_duration,
                "invalid duration range");
  ROCLK_CHECK(max_duration <= mean_spacing_stages,
                "events longer than their slots would overlap");
}

DroopTrain::DroopTrain(double peak, double mean_spacing_stages,
                       double min_duration, double max_duration,
                       std::uint64_t seed)
    : DroopTrain{peak, mean_spacing_stages, min_duration, max_duration,
                 StreamKey{seed}.split("variation.droop_train")} {}

DroopTrain::Event DroopTrain::event_in_slot(std::int64_t slot) const {
  // One candidate event per spacing-sized slot; present with p ~ 0.63
  // (Poisson with one expected arrival per slot, clipped to <= 1 event).
  CounterRng rng{key_.at(static_cast<std::uint64_t>(slot))};
  Event event;
  event.present = rng.uniform() < 0.63;
  if (!event.present) return event;
  event.duration = rng.uniform(min_duration_, max_duration_);
  event.amplitude = rng.uniform(0.2 * peak_, peak_);
  const double slack = spacing_ - event.duration;
  event.start =
      static_cast<double>(slot) * spacing_ + rng.uniform(0.0, slack);
  return event;
}

double DroopTrain::at(double t, DiePoint /*p*/) const {
  const auto slot = static_cast<std::int64_t>(std::floor(t / spacing_));
  // An event from the previous slot can spill slightly past a boundary in
  // principle; our slots confine events, so only the current slot matters.
  const Event event = event_in_slot(slot);
  if (!event.present) return 0.0;
  const double x = (t - event.start) / event.duration;
  if (x <= 0.0 || x >= 1.0) return 0.0;
  return event.amplitude * (x < 0.5 ? 2.0 * x : 2.0 * (1.0 - x));
}

std::unique_ptr<VariationSource> DroopTrain::clone() const {
  return std::make_unique<DroopTrain>(*this);
}

// ---------------------------------------------------- CompositeVariation

CompositeVariation::CompositeVariation(const CompositeVariation& other) {
  parts_.reserve(other.parts_.size());
  for (const auto& p : other.parts_) parts_.push_back(p->clone());
}

CompositeVariation& CompositeVariation::add(
    std::unique_ptr<VariationSource> source) {
  ROCLK_CHECK(source != nullptr, "null variation source");
  parts_.push_back(std::move(source));
  return *this;
}

double CompositeVariation::at(double t, DiePoint p) const {
  double acc = 0.0;
  for (const auto& part : parts_) acc += part->at(t, p);
  return acc;
}

TemporalClass CompositeVariation::temporal_class() const {
  for (const auto& part : parts_) {
    if (part->temporal_class() == TemporalClass::kDynamic) {
      return TemporalClass::kDynamic;
    }
  }
  return TemporalClass::kStatic;
}

SpatialClass CompositeVariation::spatial_class() const {
  for (const auto& part : parts_) {
    if (part->spatial_class() == SpatialClass::kHeterogeneous) {
      return SpatialClass::kHeterogeneous;
    }
  }
  return SpatialClass::kHomogeneous;
}

std::string CompositeVariation::name() const {
  std::ostringstream os;
  os << "composite(";
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (i) os << " + ";
    os << parts_[i]->name();
  }
  os << ")";
  return os.str();
}

std::unique_ptr<VariationSource> CompositeVariation::clone() const {
  return std::make_unique<CompositeVariation>(*this);
}

}  // namespace roclk::variation
