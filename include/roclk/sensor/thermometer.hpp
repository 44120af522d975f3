// Thermometer-code TDC readout microarchitecture.
//
// A delay-line TDC latches, at the clock edge, which stages a transition
// has crossed: a thermometer code 111...1000...0 whose 1-run length is the
// reading tau.  Two hardware realities the behavioural Tdc hides:
//
//  * the latch adjacent to the moving edge can go metastable and resolve
//    the wrong way, producing "bubbles" (isolated wrong bits around the
//    1->0 boundary);
//  * the decoder choice matters: a priority encoder (first 0) is thrown
//    off by a single bubble, while a ones-counter (population count) is
//    immune to any *balanced* bubble pattern and off by at most the bubble
//    count otherwise.
#pragma once

#include <cstdint>
#include <vector>

#include "roclk/common/status.hpp"
#include "roclk/common/stream_key.hpp"
#include "roclk/osc/stage_chain.hpp"

namespace roclk::sensor {

/// Latched TDC sample: bits[i] == true means stage i was crossed.
class ThermometerCode {
 public:
  ThermometerCode() = default;
  explicit ThermometerCode(std::vector<bool> bits);

  /// Ideal code: `count` ones then zeros, total length `length`.
  static ThermometerCode ideal(std::size_t count, std::size_t length);

  [[nodiscard]] std::size_t size() const { return bits_.size(); }
  [[nodiscard]] bool bit(std::size_t i) const { return bits_.at(i); }
  [[nodiscard]] const std::vector<bool>& bits() const { return bits_; }

  /// True if the code is a clean thermometer (no bubbles).
  [[nodiscard]] bool is_clean() const;

  /// Priority-encoder decode: index of the first 0 (fragile to bubbles).
  [[nodiscard]] std::size_t decode_priority() const;
  /// Ones-counter decode: population count (bubble-tolerant).
  [[nodiscard]] std::size_t decode_ones_count() const;

  /// Flips each bit within `radius` of the 1->0 boundary with probability
  /// `p` (metastability model); deterministic in rng state.
  void inject_boundary_noise(CounterRng& rng, double p,
                             std::size_t radius = 2);

 private:
  std::vector<bool> bits_;
};

enum class TdcDecoder { kPriorityEncoder, kOnesCount };

struct DetailedTdcConfig {
  osc::StageChainConfig chain{};
  TdcDecoder decoder{TdcDecoder::kOnesCount};
  /// Probability that a boundary latch resolves the wrong way.
  double metastability_p{0.0};
  std::size_t metastability_radius{2};
  /// Keys the metastability draws:
  /// StreamKey{seed}.split("sensor.metastability").
  std::uint64_t seed{0xDEC0DE};
};

/// Gate-level TDC: propagates a transition down a physical StageChain for
/// one delivered period, latches the thermometer code (with optional
/// metastability) and decodes it.
class DetailedTdc {
 public:
  explicit DetailedTdc(DetailedTdcConfig config = {});

  /// Measures one delivered period (stages) under a variation source.
  [[nodiscard]] std::int64_t measure(double delivered_period,
                                     const variation::VariationSource& source,
                                     double t);

  /// The raw latched code of the last measure() call.
  [[nodiscard]] const ThermometerCode& last_code() const { return last_; }

  [[nodiscard]] const DetailedTdcConfig& config() const { return config_; }
  [[nodiscard]] const osc::StageChain& chain() const { return chain_; }

 private:
  DetailedTdcConfig config_;
  osc::StageChain chain_;
  CounterRng rng_;
  ThermometerCode last_;
};

}  // namespace roclk::sensor
