// Ring-oscillator period jitter.
//
// Real ROs are noisy clock sources: thermal noise gives white
// (cycle-to-cycle independent) period jitter, flicker noise an
// accumulating random-walk component.  The paper's model is noiseless;
// this extension quantifies how much of the adaptive clock's recovered
// margin jitter claws back (ext_jitter bench), since jitter eats directly
// into the same safety margin the loop is trying to shrink.
#pragma once

#include <cstdint>

#include "roclk/common/stream_key.hpp"

namespace roclk::osc {

struct JitterConfig {
  /// RMS of the white (cycle-to-cycle) period jitter, in stages.
  double white_sigma{0.0};
  /// Per-cycle RMS of the accumulating (random-walk) component, stages.
  double walk_sigma{0.0};
  /// The walk is leaky so long runs stay bounded (models the 1/f corner):
  /// walk[n] = leak * walk[n-1] + N(0, walk_sigma).
  double walk_leak{0.995};
  /// Keys the noise stream: StreamKey{seed}.split("osc.jitter").
  std::uint64_t seed{0x5EED};
};

class JitterModel {
 public:
  explicit JitterModel(JitterConfig config = {});

  /// Period perturbation (stages) for the next cycle.
  double sample();

  /// Replays the noise from its first draw and zeroes the walk.
  void reset();

  [[nodiscard]] const JitterConfig& config() const { return config_; }
  [[nodiscard]] double walk_state() const { return walk_; }

 private:
  JitterConfig config_;
  CounterRng rng_;
  double walk_{0.0};
};

}  // namespace roclk::osc
