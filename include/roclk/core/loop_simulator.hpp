// The paper's discrete-time clock-generation loop (Fig. 4), executable.
//
// One step = one delivered clock period n.  All signals in stages.
//
//   tau[n]   = quantise( T_dlv[n-1] - e_tdc[n-1] + mu[n-1] )   (TDC, z^-1)
//   delta[n] = c - tau[n]
//   l_RO[n]  = H(delta)[n]          clamped to the RO's length range
//   T_gen[n] = l_RO[n-1] + e_ro[n-1]                           (RO,  z^-1)
//   T_dlv[n] = T_gen[n - M[n]],  M[n] = round(t_clk / T_gen[n]) (CDN)
//
// Setting the generator mode selects the three systems the paper compares:
//   kControlledRo  — closed loop through a ControlBlock (IIR / TEAtime /...)
//   kFreeRunningRo — l_RO frozen at `open_loop_period`; the RO still senses
//                    e_ro (it is a point sensor of its own environment)
//   kFixedClock    — T_gen frozen at `open_loop_period`; a PLL-style source
//                    that does not react to on-die variations at all
//
// The pre-simulation state is the error-free equilibrium: the clock has
// been running at l_RO = c with zero perturbation, so every delay element
// holds c.  This mirrors the paper's plots, which begin in steady state.
#pragma once

#include <memory>
#include <optional>

#include "roclk/cdn/cdn.hpp"
#include "roclk/common/status.hpp"
#include "roclk/control/control_block.hpp"
#include "roclk/core/inputs.hpp"
#include "roclk/core/trace.hpp"
#include "roclk/fault/injector.hpp"
#include "roclk/osc/ring_oscillator.hpp"
#include "roclk/sensor/tdc.hpp"

namespace roclk::core {

enum class GeneratorMode { kControlledRo, kFreeRunningRo, kFixedClock };

[[nodiscard]] constexpr const char* to_string(GeneratorMode mode) {
  switch (mode) {
    case GeneratorMode::kControlledRo:
      return "controlled RO";
    case GeneratorMode::kFreeRunningRo:
      return "free RO";
    case GeneratorMode::kFixedClock:
      return "fixed clock";
  }
  return "?";
}

struct LoopConfig {
  double setpoint_c{64.0};
  GeneratorMode mode{GeneratorMode::kControlledRo};
  /// CDN insertion delay t_clk in stages (the paper sweeps this as
  /// multiples of c).
  double cdn_delay_stages{64.0};
  /// l_RO for kFreeRunningRo / T_gen for kFixedClock.  Defaults to the
  /// set-point when unset.
  std::optional<double> open_loop_period{};
  /// RO length saturation range.
  std::int64_t min_length{8};
  std::int64_t max_length{1024};
  /// Integer l_RO (hardware) or fractional (linear-model checks).
  bool quantize_lro{true};
  /// TDC reading quantisation.
  sensor::Quantization tdc_quantization{sensor::Quantization::kNearest};
  /// CDN sample-delay quantisation (see cdn::DelayQuantization).  kRound is
  /// the literal z^-M reading of the paper's Fig. 4; kLinearInterp resolves
  /// fractional t_clk/T ratios, which the Fig. 8/9 sweeps need.
  cdn::DelayQuantization cdn_quantization{cdn::DelayQuantization::kRound};
  /// TDC chain length (readings saturate here); defaults to 1 << 20.  The
  /// simulators check max_reading >= c wherever a set-point is compared —
  /// a chain shorter than the set-point could never report "period OK" and
  /// the mis-sizing must fail loudly, not lock the loop at the rail.
  std::optional<std::int64_t> tdc_max_reading{};
};

class LoopSimulator {
 public:
  /// `controller` may be null for the open-loop modes.
  LoopSimulator(LoopConfig config,
                std::unique_ptr<control::ControlBlock> controller);

  static Status validate(const LoopConfig& config, bool has_controller);

  /// Restores the error-free equilibrium.
  void reset();

  /// Advances one period with explicit perturbation samples (stages).
  StepRecord step(double e_ro, double e_tdc, double mu);

  /// Runs n cycles of `inputs` sampled once per nominal period, at
  /// t = k * c (the set-point when the call starts): run_batch over
  /// inputs.sample(n, c).
  SimulationTrace run(const SimulationInputs& inputs, std::size_t n);

  /// Batched hot loop: runs block.cycles cycles over a one-lane block of
  /// pre-evaluated samples (see SimulationInputs::sample), with no
  /// per-cycle signal indirections.  Each cycle is step()'s arithmetic in
  /// step()'s order, so the trace is bit-for-bit a step() loop's.
  SimulationTrace run_batch(const InputBlock& block);

  [[nodiscard]] const LoopConfig& config() const { return config_; }
  [[nodiscard]] const control::ControlBlock* controller() const {
    return controller_.get();
  }

  /// Changes the set-point at runtime (the paper's section V set-point
  /// governor needs this knob).  Takes effect from the next step; the loop
  /// state is deliberately NOT reset — the controller slews to the new c.
  void set_setpoint(double setpoint_c);

  /// Attaches a fault schedule, replayed against the simulator's absolute
  /// cycle counter (cycle 0 = first step after the last reset()).  Replaces
  /// any previous schedule; the loop state is NOT reset, so a schedule can
  /// be armed mid-run.  The no-fault path is bit-for-bit unchanged.
  void attach_faults(const fault::FaultSchedule& schedule);
  [[nodiscard]] bool has_faults() const { return injector_.has_value(); }

  /// True once the loop has been isolated: a faulted cycle produced a
  /// non-physical signal (non-finite tau or delivered period) and the
  /// simulator froze at the last good record instead of letting the poison
  /// propagate into metrics.  Cleared by reset().
  [[nodiscard]] bool isolated() const { return isolated_; }

  /// Absolute cycle index of the next step (diagnostics).
  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }

 private:
  // Shared per-cycle body of step()/run_batch().  `control_step` computes
  // the commanded RO length from delta; run_batch instantiates it with the
  // concrete (devirtualised) controller, step() with the virtual call.
  // Defined in loop_simulator.cpp — both users live in that TU.
  template <typename ControlFn>
  StepRecord step_impl(double e_ro, double e_tdc, double mu,
                       ControlFn&& control_step);

  LoopConfig config_;
  std::unique_ptr<control::ControlBlock> controller_;
  osc::RingOscillator ro_;
  cdn::QuantizedTimeCdn cdn_;
  sensor::Tdc tdc_;

  // One-cycle delay registers (the z^-1 boxes of Fig. 4).
  double prev_lro_{0.0};
  double prev_t_dlv_{0.0};
  double prev_e_ro_{0.0};
  double prev_e_tdc_{0.0};
  double prev_mu_{0.0};

  // Fault replay state.
  std::optional<fault::FaultInjector> injector_{};
  std::uint64_t cycle_{0};
  bool isolated_{false};
  StepRecord frozen_{};  // last good record, repeated while isolated
};

namespace detail {
/// Construction parameters shared between LoopSimulator and
/// EnsembleSimulator, factored so the two engines derive bit-identical
/// CDN history, TDC configuration and reset equilibrium from a LoopConfig.
[[nodiscard]] std::size_t cdn_history_for(const LoopConfig& config);
[[nodiscard]] sensor::TdcConfig tdc_config_for(const LoopConfig& config);
[[nodiscard]] double equilibrium_for(const LoopConfig& config);
}  // namespace detail

/// The paper's IIR system, preconfigured at set-point c and CDN delay
/// t_clk (both in stages).  analysis::make_system builds all four systems.
[[nodiscard]] LoopSimulator make_iir_system(double setpoint_c,
                                            double cdn_delay_stages);
/// The hardened counterpart of make_iir_system: the same IIR datapath with
/// anti-windup wired to the l_RO clamps, wrapped in SensorGuard + Watchdog
/// (see control/hardened_control.hpp).  Guard and watchdog bounds scale
/// with the set-point.
[[nodiscard]] LoopSimulator make_hardened_iir_system(double setpoint_c,
                                                     double cdn_delay_stages);

}  // namespace roclk::core
