// Perturbation inputs for a discrete-time loop simulation.
//
// The discrete simulator consumes, each cycle n, three stage-valued
// signals sampled at nominal time t_n = n * c (the paper's Simulink model
// runs one sample per nominal period):
//   e_ro[n]  — homogeneous variation at the ring oscillator (stages),
//   e_tdc[n] — homogeneous variation at the TDCs (stages),
//   mu[n]    — RO<->TDC heterogeneous mismatch (stages).
// For the paper's HoDV experiments e_ro == e_tdc == e and mu is constant.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "roclk/common/thread_pool.hpp"
#include "roclk/signal/waveform.hpp"
#include "roclk/variation/variation.hpp"

namespace roclk::core {

/// Structure-of-arrays block of pre-evaluated perturbation samples: the
/// batched counterpart of SimulationInputs.  Sampling once up front moves
/// the waveform / variation-source evaluation (sin, spatial-map lookups,
/// three std::function indirections per cycle) out of the simulation hot
/// loop; LoopSimulator::run_batch then streams straight over the arrays.
struct InputBlock {
  double dt{0.0};  // sampling period the block was evaluated at (stages)
  std::vector<double> e_ro;
  std::vector<double> e_tdc;
  std::vector<double> mu;

  [[nodiscard]] std::size_t size() const { return e_ro.size(); }
  [[nodiscard]] bool empty() const { return e_ro.empty(); }
};

/// Lane-interleaved perturbation samples for an ensemble of W independent
/// loop instances: sample k of lane w lives at index k * width + w, so the
/// ensemble kernel's inner loop over lanes reads one contiguous row per
/// cycle.  Filled in one pass by the batched samplers below; per lane the
/// values are identical to InputBlock's (same signal evaluated at the same
/// t), which keeps EnsembleSimulator bit-for-bit equal to per-lane
/// run_batch.
struct EnsembleInputBlock {
  double dt{0.0};          // sampling period all lanes were evaluated at
  std::size_t width{0};    // number of lanes W
  std::size_t cycles{0};   // samples per lane
  std::vector<double> e_ro;
  std::vector<double> e_tdc;
  std::vector<double> mu;

  [[nodiscard]] bool empty() const { return width == 0 || cycles == 0; }

  /// De-interleaves one lane back into a scalar InputBlock (tests, debug,
  /// feeding a single lane through LoopSimulator::run_batch).
  [[nodiscard]] InputBlock lane(std::size_t w) const;
};

struct SimulationInputs {
  using Signal = std::function<double(double t_stages)>;

  Signal e_ro{[](double) { return 0.0; }};
  Signal e_tdc{[](double) { return 0.0; }};
  Signal mu{[](double) { return 0.0; }};

  /// Quiet environment.
  [[nodiscard]] static SimulationInputs none();

  /// The paper's HoDV setup: the same waveform (amplitude in stages)
  /// drives RO and TDCs; optional static mismatch mu (stages).
  [[nodiscard]] static SimulationInputs homogeneous(
      std::shared_ptr<const signal::Waveform> waveform,
      double static_mu_stages = 0.0);

  /// Convenience: harmonic HoDV with amplitude and period in stages.
  [[nodiscard]] static SimulationInputs harmonic(double amplitude_stages,
                                                 double period_stages,
                                                 double static_mu_stages = 0.0,
                                                 double phase = 0.0);

  /// Full-chip environment: samples a VariationSource at the RO location
  /// and at the *worst* TDC location each cycle, converting fractional
  /// variation to stages via the set-point c (e = c * v).  `tdc_grid` TDCs
  /// are consulted; the minimum reading wins, matching TdcArray semantics.
  [[nodiscard]] static SimulationInputs from_variation_source(
      std::shared_ptr<const variation::VariationSource> source,
      double setpoint_c, variation::DiePoint ro_location = {0.5, 0.5},
      std::size_t tdc_grid = 3);

  /// Evaluates the three signals at t = k * dt for k in [0, n), exactly as
  /// LoopSimulator::run samples them, into an SoA block for run_batch.
  [[nodiscard]] InputBlock sample(std::size_t n, double dt) const;
};

/// Samples one SimulationInputs per lane into an interleaved ensemble
/// block in a single pass (cycle-major).  `pool` distributes lane groups
/// over its workers (nullptr = strictly sequential); per-lane results are
/// independent of the schedule.
[[nodiscard]] EnsembleInputBlock sample_ensemble(
    std::span<const SimulationInputs> lanes, std::size_t n, double dt,
    ThreadPool* pool = nullptr);

/// The Monte-Carlo fast path: every lane sees the same homogeneous
/// waveform (e_ro == e_tdc, the paper's HoDV setup) plus its own static
/// mismatch mu.  The waveform is evaluated once per cycle and broadcast,
/// so W lanes cost one signal evaluation per sample instead of W —
/// bit-for-bit identical to sampling SimulationInputs::homogeneous(wave,
/// mu[w]) per lane.
[[nodiscard]] EnsembleInputBlock sample_homogeneous_ensemble(
    const signal::Waveform& waveform, std::span<const double> static_mu_stages,
    std::size_t n, double dt);

}  // namespace roclk::core
