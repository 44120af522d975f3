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

/// Pre-evaluated perturbation samples for W independent loop instances,
/// lane-interleaved: sample k of lane w lives at index k * width + w, so
/// the ensemble kernel's inner loop over lanes reads one contiguous row
/// per cycle.  A single loop's block is the one-lane case, which
/// LoopSimulator::run_batch streams over.  Sampling once up front moves
/// the waveform / variation-source evaluation (sin, spatial-map lookups,
/// three std::function indirections per cycle) out of every engine's hot
/// loop.  sample_ensemble fills it, so lane w holds the same doubles
/// whatever the width, which keeps EnsembleSimulator bit-for-bit equal to
/// per-lane run_batch.
struct InputBlock {
  std::size_t width{0};   // number of lanes W
  std::size_t cycles{0};  // samples per lane
  std::vector<double> e_ro;
  std::vector<double> e_tdc;
  std::vector<double> mu;

  [[nodiscard]] bool empty() const { return width == 0 || cycles == 0; }
};

/// The three signals of one loop, as functions of time in stages.  Each
/// must be a pure function of t: the engines sample a whole run up front
/// (LoopSimulator::run included), so a signal cannot depend on how often
/// or in which order it is called.  Every signal in the tree is.
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

  /// The one-lane block of the three signals at t = k * dt for k in
  /// [0, n): sample_ensemble over this lane alone, as LoopSimulator::run
  /// samples it at dt = c, for run_batch.
  [[nodiscard]] InputBlock sample(std::size_t n, double dt) const;
};

/// Samples one SimulationInputs per lane at t = k * dt for k in [0, n)
/// into an interleaved block in a single pass (cycle-major): the one place
/// the core layer evaluates input signals per cycle, besides
/// EnsembleSimulator::run_homogeneous's waveform segments.  `pool`
/// distributes lane groups over its workers (nullptr = strictly
/// sequential); per-lane results are independent of the schedule.
[[nodiscard]] InputBlock sample_ensemble(
    std::span<const SimulationInputs> lanes, std::size_t n, double dt,
    ThreadPool* pool = nullptr);

}  // namespace roclk::core
