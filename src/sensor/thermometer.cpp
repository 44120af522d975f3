#include "roclk/sensor/thermometer.hpp"

#include <algorithm>

namespace roclk::sensor {

ThermometerCode::ThermometerCode(std::vector<bool> bits)
    : bits_{std::move(bits)} {}

ThermometerCode ThermometerCode::ideal(std::size_t count,
                                       std::size_t length) {
  ROCLK_CHECK(count <= length, "count exceeds code length");
  std::vector<bool> bits(length, false);
  std::fill(bits.begin(), bits.begin() + static_cast<std::ptrdiff_t>(count),
            true);
  return ThermometerCode{std::move(bits)};
}

bool ThermometerCode::is_clean() const {
  bool seen_zero = false;
  for (bool b : bits_) {
    if (!b) {
      seen_zero = true;
    } else if (seen_zero) {
      return false;
    }
  }
  return true;
}

std::size_t ThermometerCode::decode_priority() const {
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    if (!bits_[i]) return i;
  }
  return bits_.size();
}

std::size_t ThermometerCode::decode_ones_count() const {
  return static_cast<std::size_t>(
      std::count(bits_.begin(), bits_.end(), true));
}

void ThermometerCode::inject_boundary_noise(CounterRng& rng, double p,
                                            std::size_t radius) {
  ROCLK_CHECK(p >= 0.0 && p <= 1.0, "probability out of range");
  if (bits_.empty() || p == 0.0) return;
  const std::size_t boundary = decode_priority();
  const std::size_t lo =
      boundary > radius ? boundary - radius : 0;
  const std::size_t hi = std::min(bits_.size(), boundary + radius);
  for (std::size_t i = lo; i < hi; ++i) {
    if (rng.uniform() < p) bits_[i] = !bits_[i];
  }
}

DetailedTdc::DetailedTdc(DetailedTdcConfig config)
    : config_{config},
      chain_{config.chain},
      rng_{StreamKey{config.seed}.split("sensor.metastability")} {
  ROCLK_CHECK(config_.metastability_p >= 0.0 &&
                    config_.metastability_p <= 1.0,
                "metastability probability out of range");
}

std::int64_t DetailedTdc::measure(double delivered_period,
                                  const variation::VariationSource& source,
                                  double t) {
  ROCLK_CHECK(delivered_period > 0.0, "period must be positive");
  const std::size_t crossed =
      chain_.stages_crossed(delivered_period, source, t);
  last_ = ThermometerCode::ideal(crossed, chain_.size());
  if (config_.metastability_p > 0.0) {
    last_.inject_boundary_noise(rng_, config_.metastability_p,
                                config_.metastability_radius);
  }
  switch (config_.decoder) {
    case TdcDecoder::kPriorityEncoder:
      return static_cast<std::int64_t>(last_.decode_priority());
    case TdcDecoder::kOnesCount:
      return static_cast<std::int64_t>(last_.decode_ones_count());
  }
  ROCLK_CHECK(false, "unknown decoder");
  return 0;
}

}  // namespace roclk::sensor
