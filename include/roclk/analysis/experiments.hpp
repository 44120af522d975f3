// The paper's evaluation experiments (section IV) as reusable library
// routines.  Each bench binary is a thin printer over these functions, and
// the integration tests assert the paper's qualitative claims on their
// outputs.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "roclk/analysis/metrics.hpp"
#include "roclk/common/thread_pool.hpp"
#include "roclk/core/loop_simulator.hpp"

namespace roclk::analysis {

enum class SystemKind { kIir, kTeaTime, kFreeRo, kFixedClock };

[[nodiscard]] constexpr const char* to_string(SystemKind kind) {
  switch (kind) {
    case SystemKind::kIir:
      return "IIR RO";
    case SystemKind::kTeaTime:
      return "TEAtime RO";
    case SystemKind::kFreeRo:
      return "Free RO";
    case SystemKind::kFixedClock:
      return "Fixed clock";
  }
  return "?";
}

inline constexpr SystemKind kAdaptiveSystems[] = {
    SystemKind::kIir, SystemKind::kTeaTime, SystemKind::kFreeRo};
inline constexpr SystemKind kAllSystems[] = {
    SystemKind::kIir, SystemKind::kTeaTime, SystemKind::kFreeRo,
    SystemKind::kFixedClock};

/// Shared experiment parameters; defaults are the paper's (section IV).
struct ExperimentParams {
  double setpoint_c{64.0};
  double amplitude_frac{0.2};  // HoDV amplitude = 0.2 c
  std::size_t min_cycles{4000};
  std::size_t transient_skip{1000};
  /// Simulated periods per perturbation period (long perturbations need
  /// proportionally longer runs to reach steady state).
  double periods_of_perturbation{12.0};
  std::size_t max_cycles{400000};
  /// The sweeps resolve fractional t_clk/T ratios (Fig. 8's log axis and
  /// Fig. 9's 0.75c/1c/1.25c columns), so the CDN interpolates by default.
  cdn::DelayQuantization cdn_quantization{
      cdn::DelayQuantization::kLinearInterp};
};

/// Builds one of the four systems at set-point c and CDN delay t_clk.
[[nodiscard]] core::LoopSimulator make_system(
    SystemKind kind, double setpoint_c, double cdn_delay_stages,
    double open_loop_margin = 0.0,
    cdn::DelayQuantization cdn_quantization =
        cdn::DelayQuantization::kLinearInterp);

/// Number of simulation cycles adequate for a perturbation of period
/// `te_over_c` nominal periods.
[[nodiscard]] std::size_t cycles_for(const ExperimentParams& params,
                                     double te_over_c);

// ------------------------------------------------------------------ Fig. 7

/// Timing-error traces tau - c for the four systems under a harmonic HoDV.
struct Fig7Trace {
  SystemKind system;
  std::vector<double> timing_error;  // one value per period number
};
struct Fig7Result {
  double te_over_c;
  std::size_t first_period;  // paper plots periods 500..600
  std::size_t last_period;
  std::vector<Fig7Trace> traces;
};
[[nodiscard]] Fig7Result fig7_timing_error(double te_over_c,
                                           double tclk_over_c = 1.0,
                                           std::size_t first_period = 500,
                                           std::size_t last_period = 600,
                                           const ExperimentParams& params =
                                               {});

// ------------------------------------------------------------------ Fig. 8

/// One x point of a relative-adaptive-period sweep under HoDV.
struct RelativePeriodRow {
  double x;        // t_clk/c (upper plot) or T_e/c (lower plot)
  double iir;      // <T>/T_fixed for the IIR RO
  double teatime;  // ... TEAtime RO
  double free_ro;  // ... free-running RO
};

/// Fig. 8 upper: T_e fixed (default 100c), sweep t_clk/c.
[[nodiscard]] std::vector<RelativePeriodRow> fig8_cdn_delay_sweep(
    std::span<const double> tclk_over_c, double te_over_c = 100.0,
    const ExperimentParams& params = {});

/// Fig. 8 lower: t_clk fixed (default 1c), sweep T_e/c.
[[nodiscard]] std::vector<RelativePeriodRow> fig8_frequency_sweep(
    std::span<const double> te_over_c, double tclk_over_c = 1.0,
    const ExperimentParams& params = {});

/// Log-spaced grid helper for the sweeps.
[[nodiscard]] std::vector<double> log_space(double lo, double hi,
                                            std::size_t points);

// ------------------------------------------------------------------ Fig. 9

/// One subplot of Fig. 9: relative adaptive period vs static mismatch mu/c
/// for a given (t_clk/c, T_e/c) pair.  The free RO's safety margin is fixed
/// at design time to cover the whole mu range (paper section IV-B).
struct Fig9Cell {
  double tclk_over_c;
  double te_over_c;
  std::vector<double> mu_over_c;
  std::vector<double> iir;
  std::vector<double> teatime;
  std::vector<double> free_ro;
};
[[nodiscard]] Fig9Cell fig9_mismatch_sweep(double tclk_over_c,
                                           double te_over_c,
                                           std::span<const double> mu_over_c,
                                           const ExperimentParams& params =
                                               {});

// -------------------------------------------------- worked examples (IV)

/// Paper end-of-section-IV.A / IV.B arithmetic, fed by measured relative
/// periods.  Stage delay such that c = 64 stages <-> 1 ns.
struct WorkedExample {
  double fixed_period_ns;     // 1.2 ns (HoDV) or 1.4 ns (HoDV+HeDV)
  double adaptive_period_ns;  // measured
  double margin_saved_ns;     // fixed - adaptive
  double margin_reduction;    // fraction of the fixed margin recovered
};
[[nodiscard]] WorkedExample worked_example(double relative_adaptive_period,
                                           double fixed_period_stages,
                                           double setpoint_c,
                                           double ns_per_setpoint = 1.0);

/// Runs one system against a harmonic HoDV (+ optional static mu) and
/// reports its metrics.  The building block of all sweeps above.  Runs
/// are memoised in SweepMemo::global() (sweep_cache.hpp): a hit skips the
/// simulation, a miss runs simulate_system and stores the result.
[[nodiscard]] RunMetrics measure_system(
    SystemKind kind, double setpoint_c, double tclk_stages,
    double amplitude_stages, double period_stages, double mu_stages,
    double fixed_period, std::size_t cycles, std::size_t skip,
    double free_ro_margin = 0.0,
    cdn::DelayQuantization cdn_quantization =
        cdn::DelayQuantization::kLinearInterp);

/// The memo-free core of measure_system: always simulates, as the one lane
/// of a simulate_system_ensemble call, and never touches SweepMemo.  The
/// streamed metrics are bitwise identical to make_system + run_batch +
/// evaluate_run, without materialising the trace.  The sweep service calls
/// it, so the service's own bounded cache is the only one on its miss
/// path.
[[nodiscard]] RunMetrics simulate_system(
    SystemKind kind, double setpoint_c, double tclk_stages,
    double amplitude_stages, double period_stages, double mu_stages,
    double fixed_period, std::size_t cycles, std::size_t skip,
    double free_ro_margin = 0.0,
    cdn::DelayQuantization cdn_quantization =
        cdn::DelayQuantization::kLinearInterp);

/// Lane-parallel measure_system: one lane per operating point of the same
/// system kind, sharing one harmonic HoDV of `amplitude_stages` /
/// `period_stages` (so all lanes run the same number of cycles).
/// `tclk_stages` and `mu_stages` each hold either one shared value or one
/// per lane; the lane count is the longer of the two.  Results (and memo
/// entries) are bit-for-bit identical to calling measure_system per lane —
/// lanes already memoised are not re-simulated, the rest run as the lanes
/// of one simulate_system_ensemble call on the shared process-wide pool
/// (per-lane results are bitwise identical for every choice of pool).
[[nodiscard]] std::vector<RunMetrics> measure_system_ensemble(
    SystemKind kind, double setpoint_c, std::span<const double> tclk_stages,
    double amplitude_stages, double period_stages,
    std::span<const double> mu_stages, double fixed_period,
    std::size_t cycles, std::size_t skip, double free_ro_margin = 0.0,
    cdn::DelayQuantization cdn_quantization =
        cdn::DelayQuantization::kLinearInterp);

/// The memo-free core of measure_system_ensemble: every lane runs through
/// one EnsembleSimulator with a streaming MetricsReducer, on `pool`
/// (nullptr = strictly sequential), and SweepMemo is never touched.  The
/// waveform is sampled once per cycle for all lanes, 8192 cycles (64 KiB)
/// at a time, and broadcast to them (EnsembleSimulator::run_homogeneous),
/// so a call's memory does not grow with `cycles`.  Lane i is bitwise
/// identical to simulate_system at lane i's operating point, whichever
/// other lanes run beside it.
[[nodiscard]] std::vector<RunMetrics> simulate_system_ensemble(
    SystemKind kind, double setpoint_c, std::span<const double> tclk_stages,
    double amplitude_stages, double period_stages,
    std::span<const double> mu_stages, double fixed_period,
    std::size_t cycles, std::size_t skip, double free_ro_margin,
    cdn::DelayQuantization cdn_quantization, ThreadPool* pool);

}  // namespace roclk::analysis
