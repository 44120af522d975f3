// Clock distribution network (CDN) models.
//
// The CDN carries the generated clock from the (controlled) ring oscillator
// to the registers.  Its insertion delay t_clk means the delivered clock
// period observed at the leaves *now* was generated t_clk ago — the central
// mechanism by which dynamic variations defeat adaptive clocking (paper
// section II-A and Fig. 4).
//
// QuantizedTimeCdn is the paper's simulation model: the delay in samples
// is re-quantised every cycle, M[n] = t_clk/T_clk[n].  (The event-driven
// core::EdgeSimulator delays edges by t_clk itself, so there M is
// emergent.)
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "roclk/common/check.hpp"
#include "roclk/common/math.hpp"

namespace roclk::cdn {

/// How the real-valued sample delay t_clk / T_clk[n] is mapped onto the
/// discrete history:
///  * kRound  — M[n] = round(t_clk / T_clk[n]): the literal reading of the
///              paper's "z^-M" (integer sample delay, re-quantised).
///  * kFloor  — M[n] = floor(t_clk / T_clk[n]).
///  * kLinearInterp — fractional delay by linear interpolation between the
///              floor(D) and floor(D)+1 look-backs.  Needed to resolve
///              sub-period CDN differences (the paper's Fig. 9 compares
///              t_clk = 0.75c / 1c / 1.25c, which integer quantisation
///              would partly collapse onto the same M).
enum class DelayQuantization { kRound, kFloor, kLinearInterp };

/// The paper's model: M[n] = t_clk / T_clk[n] is re-computed every cycle
/// from the period currently entering the CDN; the delivered period is the
/// one generated M[n] cycles ago.  push() the generated period of cycle n
/// to receive the period delivered at the leaves during cycle n.
class QuantizedTimeCdn {
 public:
  /// `delay_stages` is t_clk; `history` bounds the look-back window and
  /// must exceed every M that can occur (t_clk / min-period).
  /// `ring_depth` is the physical circular-buffer depth: 0 (the default)
  /// sizes it to the smallest power of two covering `history`; an explicit
  /// value must itself be a power of two >= history (mask indexing is a
  /// load-bearing invariant of the hot loop) or construction throws.
  explicit QuantizedTimeCdn(double delay_stages, std::size_t history = 4096,
                            DelayQuantization quantization =
                                DelayQuantization::kRound,
                            std::size_t ring_depth = 0);

  /// `generated_period` in stages; returns the delivered period in
  /// stages.  The per-simulated-cycle hot path of every sweep, so it is
  /// defined inline.
  double push(double generated_period) {
    ROCLK_CHECK(generated_period > 0.0,
                "generated period must be positive, got "
                    << generated_period << " stages");
    ring_[next_] = generated_period;
    next_ = (next_ + 1) & mask_;
    count_ = std::min(count_ + 1, history_);

    // Real-valued sample delay D[n] = t_clk / T_clk[n], bounded by the
    // history we actually keep.
    const double d = std::min(delay_stages_ / generated_period,
                              static_cast<double>(history_ - 2));
    last_m_ = static_cast<std::size_t>(llround_ties_away(d));

    switch (quantization_) {
      case DelayQuantization::kRound:
        return look_back(last_m_);
      case DelayQuantization::kFloor:
        return look_back(static_cast<std::size_t>(std::floor(d)));
      case DelayQuantization::kLinearInterp: {
        const auto m0 = static_cast<std::size_t>(std::floor(d));
        const double frac = d - std::floor(d);
        const double v0 = look_back(m0);
        if (frac == 0.0) return v0;
        const double v1 = look_back(m0 + 1);
        return v0 * (1.0 - frac) + v1 * frac;
      }
    }
    ROCLK_CHECK(false, "unknown quantization mode");
    return generated_period;
  }

  /// Restores power-on state; `initial_period` pre-fills the pipeline
  /// (the clock was already running at that period before the
  /// simulation window).
  void reset(double initial_period);
  /// Current delay in samples (diagnostic).
  [[nodiscard]] std::size_t current_delay_samples() const { return last_m_; }
  [[nodiscard]] double delay_stages() const { return delay_stages_; }
  [[nodiscard]] DelayQuantization quantization() const {
    return quantization_;
  }

  /// Diagnostic look-back: period generated `m` cycles before the most
  /// recent push.  Cycles before the simulation started (m past the pushed
  /// count, including the freshly reset state) read the initial period.
  [[nodiscard]] double peek_back(std::size_t m) const { return look_back(m); }

 private:
  /// Period generated `m` cycles before the most recent push.
  [[nodiscard]] double look_back(std::size_t m) const {
    if (m >= history_ || m >= count_) {
      // Looking back before the simulation started (or past the retained
      // window): the clock ran at the initial period.
      return initial_period_;
    }
    // Most recent entry sits just behind the write cursor.  The ring is a
    // power of two, so the wrap is a mask; m < history_ <= ring size keeps
    // the subtraction in range.
    const std::size_t newest = (next_ + mask_) & mask_;
    const std::size_t idx = (newest + ring_.size() - m) & mask_;
    return ring_[idx];
  }

  double delay_stages_;
  std::size_t history_;
  DelayQuantization quantization_{DelayQuantization::kRound};
  // Circular buffer of generated periods, sized to the power of two at or
  // above `history` so the cursor arithmetic is mask-based (the hot loop
  // otherwise pays three integer divisions per simulated cycle).
  std::vector<double> ring_;
  std::size_t mask_{0};        // ring_.size() - 1
  std::size_t next_{0};        // write cursor
  std::size_t count_{0};       // number of valid entries (capped at history)
  std::size_t last_m_{0};
  double initial_period_{0.0};
};

}  // namespace roclk::cdn
