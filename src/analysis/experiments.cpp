#include "roclk/analysis/experiments.hpp"

#include <algorithm>
#include <cmath>

#include "roclk/analysis/ensemble_metrics.hpp"
#include "roclk/analysis/sweep_cache.hpp"
#include "roclk/common/status.hpp"
#include "roclk/common/thread_pool.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/control/teatime.hpp"
#include "roclk/core/ensemble_simulator.hpp"
#include "roclk/signal/waveform.hpp"

namespace roclk::analysis {

namespace {

/// The loop config and the controller (null for the open-loop kinds) of
/// one system, shared by the scalar and ensemble paths so both construct
/// bit-identical loops.
core::LoopConfig system_config(SystemKind kind, double setpoint_c,
                               double cdn_delay_stages,
                               double open_loop_margin,
                               cdn::DelayQuantization cdn_quantization) {
  core::LoopConfig cfg;
  cfg.setpoint_c = setpoint_c;
  cfg.cdn_delay_stages = cdn_delay_stages;
  cfg.cdn_quantization = cdn_quantization;
  if (kind == SystemKind::kIir || kind == SystemKind::kTeaTime) {
    cfg.mode = core::GeneratorMode::kControlledRo;
  } else {
    cfg.mode = kind == SystemKind::kFreeRo ? core::GeneratorMode::kFreeRunningRo
                                           : core::GeneratorMode::kFixedClock;
    cfg.open_loop_period = setpoint_c + open_loop_margin;
  }
  return cfg;
}

/// Built and validated once per process; callers read or clone it.
const control::ControlBlock* system_controller(SystemKind kind) {
  switch (kind) {
    case SystemKind::kIir: {
      static const control::IirControlHardware iir{
          control::paper_iir_config()};
      return &iir;
    }
    case SystemKind::kTeaTime: {
      static const control::TeaTimeControl teatime;
      return &teatime;
    }
    case SystemKind::kFreeRo:
    case SystemKind::kFixedClock:
      break;
  }
  return nullptr;
}

}  // namespace

core::LoopSimulator make_system(SystemKind kind, double setpoint_c,
                                double cdn_delay_stages,
                                double open_loop_margin,
                                cdn::DelayQuantization cdn_quantization) {
  const control::ControlBlock* controller = system_controller(kind);
  return core::LoopSimulator{
      system_config(kind, setpoint_c, cdn_delay_stages, open_loop_margin,
                    cdn_quantization),
      controller != nullptr ? controller->clone() : nullptr};
}

std::size_t cycles_for(const ExperimentParams& params, double te_over_c) {
  // One control sample covers ~one nominal period, so a perturbation of
  // T_e = k*c stages spans ~k samples.
  const double te_samples = std::max(1.0, te_over_c);
  const auto settle = static_cast<std::size_t>(
      std::ceil(params.periods_of_perturbation * te_samples));
  const std::size_t skip = std::max(
      params.transient_skip,
      static_cast<std::size_t>(std::ceil(3.0 * te_samples)));
  const std::size_t cycles = skip + std::max(params.min_cycles, settle);
  return std::min(cycles, params.max_cycles);
}

namespace {

std::size_t skip_for(const ExperimentParams& params, double te_over_c) {
  const double te_samples = std::max(1.0, te_over_c);
  return std::max(params.transient_skip,
                  static_cast<std::size_t>(std::ceil(3.0 * te_samples)));
}

}  // namespace

RunMetrics measure_system(SystemKind kind, double setpoint_c,
                          double tclk_stages, double amplitude_stages,
                          double period_stages, double mu_stages,
                          double fixed_period, std::size_t cycles,
                          std::size_t skip, double free_ro_margin,
                          cdn::DelayQuantization cdn_quantization) {
  // The run is fully determined by the key; T_fixed only renormalises the
  // result, so memo hits are valid across sweeps with different T_fixed.
  const SweepKey key{static_cast<int>(kind),
                     setpoint_c,
                     tclk_stages,
                     amplitude_stages,
                     period_stages,
                     mu_stages,
                     cycles,
                     skip,
                     free_ro_margin,
                     static_cast<int>(cdn_quantization)};
  auto& memo = SweepMemo::global();
  RunMetrics metrics;
  if (memo.lookup(key, metrics)) {
    metrics.relative_adaptive_period =
        (metrics.mean_period + metrics.safety_margin) / fixed_period;
    return metrics;
  }
  metrics = simulate_system(kind, setpoint_c, tclk_stages, amplitude_stages,
                            period_stages, mu_stages, fixed_period, cycles,
                            skip, free_ro_margin, cdn_quantization);
  memo.store(key, metrics);
  return metrics;
}

namespace {

/// Lane count of an ensemble call whose `tclk_stages` and `mu_stages` each
/// hold one shared value or one value per lane.
std::size_t lane_count(std::span<const double> tclk_stages,
                       std::span<const double> mu_stages) {
  const std::size_t lanes = std::max(tclk_stages.size(), mu_stages.size());
  ROCLK_CHECK(lanes > 0, "no operating points");
  ROCLK_CHECK(tclk_stages.size() == lanes || tclk_stages.size() == 1,
                "tclk span must hold one value or one per lane");
  ROCLK_CHECK(mu_stages.size() == lanes || mu_stages.size() == 1,
                "mu span must hold one value or one per lane");
  return lanes;
}

/// Lane `i`'s value of a span holding one shared value or one per lane.
double lane_value(std::span<const double> values, std::size_t i) {
  return values.size() == 1 ? values.front() : values[i];
}

}  // namespace

std::vector<RunMetrics> simulate_system_ensemble(
    SystemKind kind, double setpoint_c, std::span<const double> tclk_stages,
    double amplitude_stages, double period_stages,
    std::span<const double> mu_stages, double fixed_period,
    std::size_t cycles, std::size_t skip, double free_ro_margin,
    cdn::DelayQuantization cdn_quantization, ThreadPool* pool) {
  const std::size_t lanes = lane_count(tclk_stages, mu_stages);
  std::vector<core::LoopConfig> configs;
  std::vector<double> lane_mus;
  configs.reserve(lanes);
  lane_mus.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    configs.push_back(system_config(kind, setpoint_c,
                                    lane_value(tclk_stages, i),
                                    free_ro_margin, cdn_quantization));
    lane_mus.push_back(lane_value(mu_stages, i));
  }
  // One controller for every lane: the ensemble devirtualizes the IIR
  // hardware into its bank and clones any other kind per lane.
  core::EnsembleSimulator ensemble{std::move(configs),
                                   system_controller(kind)};

  // All lanes share the harmonic HoDV waveform: the bit-identical fast
  // path of per-lane SimulationInputs::harmonic sampling, streamed in
  // segments on the stack that never map memory
  // (EnsembleSimulator::run_homogeneous).
  const signal::SineWaveform waveform{amplitude_stages, period_stages};
  return evaluate_homogeneous_mc(ensemble, waveform, lane_mus, cycles,
                                 setpoint_c, {fixed_period}, skip, pool);
}

RunMetrics simulate_system(SystemKind kind, double setpoint_c,
                           double tclk_stages, double amplitude_stages,
                           double period_stages, double mu_stages,
                           double fixed_period, std::size_t cycles,
                           std::size_t skip, double free_ro_margin,
                           cdn::DelayQuantization cdn_quantization) {
  return simulate_system_ensemble(kind, setpoint_c, {&tclk_stages, 1},
                                  amplitude_stages, period_stages,
                                  {&mu_stages, 1}, fixed_period, cycles, skip,
                                  free_ro_margin, cdn_quantization, nullptr)
      .front();
}

std::vector<RunMetrics> measure_system_ensemble(
    SystemKind kind, double setpoint_c, std::span<const double> tclk_stages,
    double amplitude_stages, double period_stages,
    std::span<const double> mu_stages, double fixed_period,
    std::size_t cycles, std::size_t skip, double free_ro_margin,
    cdn::DelayQuantization cdn_quantization) {
  const std::size_t lanes = lane_count(tclk_stages, mu_stages);
  const auto key_for = [&](std::size_t i) {
    return SweepKey{static_cast<int>(kind),
                    setpoint_c,
                    lane_value(tclk_stages, i),
                    amplitude_stages,
                    period_stages,
                    lane_value(mu_stages, i),
                    cycles,
                    skip,
                    free_ro_margin,
                    static_cast<int>(cdn_quantization)};
  };

  auto& memo = SweepMemo::global();
  std::vector<RunMetrics> out(lanes);
  std::vector<std::size_t> pending;
  std::vector<double> pending_tclks;
  std::vector<double> pending_mus;
  for (std::size_t i = 0; i < lanes; ++i) {
    RunMetrics metrics;
    if (memo.lookup(key_for(i), metrics)) {
      metrics.relative_adaptive_period =
          (metrics.mean_period + metrics.safety_margin) / fixed_period;
      out[i] = metrics;
    } else {
      pending.push_back(i);
      pending_tclks.push_back(lane_value(tclk_stages, i));
      pending_mus.push_back(lane_value(mu_stages, i));
    }
  }
  if (pending.empty()) return out;

  // Only the memo misses become ensemble lanes.
  const std::vector<RunMetrics> measured = simulate_system_ensemble(
      kind, setpoint_c, pending_tclks, amplitude_stages, period_stages,
      pending_mus, fixed_period, cycles, skip, free_ro_margin,
      cdn_quantization, &ThreadPool::shared());
  for (std::size_t j = 0; j < pending.size(); ++j) {
    out[pending[j]] = measured[j];
    memo.store(key_for(pending[j]), measured[j]);
  }
  return out;
}

// -------------------------------------------------------------------- Fig 7

Fig7Result fig7_timing_error(double te_over_c, double tclk_over_c,
                             std::size_t first_period,
                             std::size_t last_period,
                             const ExperimentParams& params) {
  ROCLK_CHECK(last_period > first_period, "empty period window");
  const double c = params.setpoint_c;
  const double amplitude = params.amplitude_frac * c;
  const double period = te_over_c * c;
  const std::size_t cycles =
      std::max<std::size_t>(last_period + 1, cycles_for(params, te_over_c));

  Fig7Result result;
  result.te_over_c = te_over_c;
  result.first_period = first_period;
  result.last_period = last_period;
  for (SystemKind kind : kAllSystems) {
    auto system = make_system(kind, c, tclk_over_c * c);
    const auto inputs = core::SimulationInputs::harmonic(amplitude, period);
    const auto trace = system.run(inputs, cycles);
    const auto err = trace.timing_error(c);
    Fig7Trace slice;
    slice.system = kind;
    slice.timing_error.assign(
        err.begin() + static_cast<std::ptrdiff_t>(first_period),
        err.begin() + static_cast<std::ptrdiff_t>(last_period + 1));
    result.traces.push_back(std::move(slice));
  }
  return result;
}

// -------------------------------------------------------------------- Fig 8

namespace {

RelativePeriodRow relative_period_row(double x, double tclk_over_c,
                                      double te_over_c,
                                      const ExperimentParams& params) {
  const double c = params.setpoint_c;
  const double amplitude = params.amplitude_frac * c;
  const double fixed_period = fixed_clock_period(c, amplitude);
  const std::size_t cycles = cycles_for(params, te_over_c);
  const std::size_t skip = skip_for(params, te_over_c);

  RelativePeriodRow row;
  row.x = x;
  row.iir = measure_system(SystemKind::kIir, c, tclk_over_c * c, amplitude,
                           te_over_c * c, 0.0, fixed_period, cycles, skip)
                .relative_adaptive_period;
  row.teatime =
      measure_system(SystemKind::kTeaTime, c, tclk_over_c * c, amplitude,
                     te_over_c * c, 0.0, fixed_period, cycles, skip)
          .relative_adaptive_period;
  row.free_ro =
      measure_system(SystemKind::kFreeRo, c, tclk_over_c * c, amplitude,
                     te_over_c * c, 0.0, fixed_period, cycles, skip)
          .relative_adaptive_period;
  return row;
}

}  // namespace

std::vector<RelativePeriodRow> fig8_cdn_delay_sweep(
    std::span<const double> tclk_over_c, double te_over_c,
    const ExperimentParams& params) {
  // The perturbation (and therefore the cycle count) is shared across the
  // sweep, so the t_clk axis runs as ensemble lanes: one lane-parallel run
  // per system instead of one simulator per (system, t_clk) cell.
  const double c = params.setpoint_c;
  const double amplitude = params.amplitude_frac * c;
  const double fixed_period = fixed_clock_period(c, amplitude);
  const std::size_t cycles = cycles_for(params, te_over_c);
  const std::size_t skip = skip_for(params, te_over_c);

  std::vector<double> tclk_lanes;
  tclk_lanes.reserve(tclk_over_c.size());
  for (const double x : tclk_over_c) tclk_lanes.push_back(x * c);
  const double mu = 0.0;

  std::vector<RelativePeriodRow> rows(tclk_over_c.size());
  for (const SystemKind kind : kAdaptiveSystems) {
    const std::vector<RunMetrics> metrics = measure_system_ensemble(
        kind, c, tclk_lanes, amplitude, te_over_c * c, {&mu, 1},
        fixed_period, cycles, skip, 0.0, params.cdn_quantization);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].x = tclk_over_c[i];
      switch (kind) {
        case SystemKind::kIir:
          rows[i].iir = metrics[i].relative_adaptive_period;
          break;
        case SystemKind::kTeaTime:
          rows[i].teatime = metrics[i].relative_adaptive_period;
          break;
        default:
          rows[i].free_ro = metrics[i].relative_adaptive_period;
          break;
      }
    }
  }
  return rows;
}

std::vector<RelativePeriodRow> fig8_frequency_sweep(
    std::span<const double> te_over_c, double tclk_over_c,
    const ExperimentParams& params) {
  std::vector<RelativePeriodRow> rows(te_over_c.size());
  parallel_for(te_over_c.size(), [&](std::size_t i) {
    rows[i] =
        relative_period_row(te_over_c[i], tclk_over_c, te_over_c[i], params);
  });
  return rows;
}

std::vector<double> log_space(double lo, double hi, std::size_t points) {
  ROCLK_CHECK(lo > 0.0 && hi > lo, "invalid log range");
  ROCLK_CHECK(points >= 2, "need at least two points");
  std::vector<double> out(points);
  const double step =
      (std::log10(hi) - std::log10(lo)) / static_cast<double>(points - 1);
  for (std::size_t i = 0; i < points; ++i) {
    out[i] = std::pow(10.0, std::log10(lo) + step * static_cast<double>(i));
  }
  return out;
}

// -------------------------------------------------------------------- Fig 9

Fig9Cell fig9_mismatch_sweep(double tclk_over_c, double te_over_c,
                             std::span<const double> mu_over_c,
                             const ExperimentParams& params) {
  ROCLK_CHECK(!mu_over_c.empty(), "empty mu sweep");
  const double c = params.setpoint_c;
  const double amplitude = params.amplitude_frac * c;
  double mu_bound = 0.0;
  for (double mu : mu_over_c) mu_bound = std::max(mu_bound, std::fabs(mu));
  const double fixed_period = fixed_clock_period(c, amplitude, mu_bound * c);
  const std::size_t cycles = cycles_for(params, te_over_c);
  const std::size_t skip = skip_for(params, te_over_c);

  Fig9Cell cell;
  cell.tclk_over_c = tclk_over_c;
  cell.te_over_c = te_over_c;
  cell.mu_over_c.assign(mu_over_c.begin(), mu_over_c.end());
  cell.iir.resize(mu_over_c.size());
  cell.teatime.resize(mu_over_c.size());
  cell.free_ro.resize(mu_over_c.size());

  // The mu axis runs as ensemble lanes: all lanes share the harmonic HoDV
  // and cycle count, only the static mismatch differs per lane.
  std::vector<double> mu_lanes;
  mu_lanes.reserve(mu_over_c.size());
  for (const double mu : mu_over_c) mu_lanes.push_back(mu * c);
  const double tclk = tclk_over_c * c;

  const std::vector<RunMetrics> iir = measure_system_ensemble(
      SystemKind::kIir, c, {&tclk, 1}, amplitude, te_over_c * c, mu_lanes,
      fixed_period, cycles, skip);
  const std::vector<RunMetrics> teatime = measure_system_ensemble(
      SystemKind::kTeaTime, c, {&tclk, 1}, amplitude, te_over_c * c,
      mu_lanes, fixed_period, cycles, skip);
  const std::vector<RunMetrics> free_ro = measure_system_ensemble(
      SystemKind::kFreeRo, c, {&tclk, 1}, amplitude, te_over_c * c, mu_lanes,
      fixed_period, cycles, skip);

  // The free RO's l_RO is frozen at design time, so its margin must cover
  // the worst mu of the whole range.
  double design_margin = 0.0;
  for (const RunMetrics& run : free_ro) {
    design_margin = std::max(design_margin, run.safety_margin);
  }
  for (std::size_t i = 0; i < mu_over_c.size(); ++i) {
    cell.iir[i] = iir[i].relative_adaptive_period;
    cell.teatime[i] = teatime[i].relative_adaptive_period;
    cell.free_ro[i] = (free_ro[i].mean_period + design_margin) / fixed_period;
  }
  return cell;
}

// ------------------------------------------------------- worked examples

WorkedExample worked_example(double relative_adaptive_period,
                             double fixed_period_stages, double setpoint_c,
                             double ns_per_setpoint) {
  WorkedExample ex;
  const double ns_per_stage = ns_per_setpoint / setpoint_c;
  ex.fixed_period_ns = fixed_period_stages * ns_per_stage;
  ex.adaptive_period_ns =
      relative_adaptive_period * fixed_period_stages * ns_per_stage;
  ex.margin_saved_ns = ex.fixed_period_ns - ex.adaptive_period_ns;
  ex.margin_reduction = safety_margin_reduction(
      relative_adaptive_period, fixed_period_stages, setpoint_c);
  return ex;
}

}  // namespace roclk::analysis
