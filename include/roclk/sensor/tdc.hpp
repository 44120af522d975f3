// Time-to-digital converter (TDC) delay sensors.
//
// A TDC (Drake et al., ICICDT 2008 — paper ref. [7]) launches a transition
// into a calibrated chain of stages at each delivered clock edge and latches
// how many stages it crossed by the next edge.  The integer reading tau is
// the local logic depth that fits in one clock period: tau < c means the
// period is too short for the set-point c (a timing error is imminent);
// tau > c wastes performance.
//
// The measurement model is the paper's additive one (eqs. 4-5):
// tau = T_delivered - e + mu, with e the homogeneous variation in stages
// and mu the RO<->TDC mismatch in stages (positive mu = TDC reads
// optimistically high).  The control loop consumes the worst (minimum)
// reading of the domain's sensors each cycle.
//
// Readings are quantised to integers (floor: only fully crossed stages
// count).  The one-cycle measurement latency (the TDC register z^-1 in the
// paper's Fig. 4) is modelled by the loop simulator, not here.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "roclk/common/check.hpp"
#include "roclk/common/math.hpp"
#include "roclk/common/status.hpp"

namespace roclk::sensor {

enum class Quantization {
  kFloor,  // physical: only completed stages are counted
  kNearest,
  kNone,   // keep the fractional reading (analysis convenience)
};

struct TdcConfig {
  /// Static mismatch in stages added to the reading (the paper's mu).
  double mismatch_stages{0.0};
  Quantization quantization{Quantization::kFloor};
  /// Hardware chain length: readings saturate here.
  std::int64_t max_reading{4096};
};

class Tdc {
 public:
  explicit Tdc(TdcConfig config = {});

  static Status validate(const TdcConfig& config);

  [[nodiscard]] const TdcConfig& config() const { return config_; }

  /// Additive (paper) model.  `delivered_period` and `e_local` in stages.
  /// Per-simulated-cycle hot path: kept inline.
  [[nodiscard]] double measure_additive(double delivered_period,
                                        double e_local) const {
    ROCLK_CHECK(delivered_period > 0.0,
                "delivered period must be positive, got "
                    << delivered_period << " stages");
    return quantize(delivered_period - e_local + config_.mismatch_stages);
  }

 private:
  [[nodiscard]] double quantize(double raw) const {
    // A NaN reading would slip through the saturation clamp below (every
    // comparison is false) and poison the control loop several cycles
    // downstream of the actual bug — catch it at the sensor.
    ROCLK_DCHECK(!std::isnan(raw),
                 "TDC raw reading is NaN (delivered period / variation "
                 "inputs inconsistent)");
    double q = raw;
    switch (config_.quantization) {
      case Quantization::kFloor:
        q = std::floor(raw);
        break;
      case Quantization::kNearest:
        q = round_ties_away(raw);
        break;
      case Quantization::kNone:
        break;
    }
    // Saturation (not an error): the hardware chain is max_reading stages
    // long and cannot count past it, nor report negative crossings.
    q = std::clamp(q, 0.0, static_cast<double>(config_.max_reading));
    return q;
  }

  TdcConfig config_;
};

}  // namespace roclk::sensor
