// R1 — fault-injection robustness sweep: hardened vs unguarded loop.
//
// Sweeps the fault taxonomy (kind x magnitude x duration) over the Fig. 4
// loop twice per scenario — once with the paper's bare IIR controller and
// once wrapped in the hardened stack (SensorGuard + Watchdog + anti-windup)
// — and scores each pair with analysis::compare_hardening:
//
//  * true timing errors before / during / after the fault window,
//  * time-to-relock after the fault clears,
//  * tail re-convergence (the type-1 zero-steady-state-error property).
//
// The headline claim this runner regenerates: under every sensor-level
// fault the hardened loop commits no more timing errors than the unguarded
// one, and for the dangerous stuck-HIGH faults (the controller is lied to
// that the clock is slow) it eliminates the error storm entirely by
// degrading to the safe maximum period.
//
// Usage: run from the repository root; writes
// bench_results/fault_sweep.csv.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "roclk/analysis/fault_metrics.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/fault/fault.hpp"

namespace {

using roclk::analysis::FaultRecoveryMetrics;
using roclk::analysis::HardeningVerdict;
using roclk::fault::FaultEvent;
using roclk::fault::FaultKind;
using roclk::fault::FaultSchedule;

constexpr double kSetpoint = 64.0;
constexpr double kTclk = 128.0;
constexpr std::uint64_t kFaultStart = 300;
constexpr std::size_t kCycles = 2400;

struct Scenario {
  FaultKind kind;
  double magnitude;
  std::uint64_t duration;
};

std::vector<Scenario> build_grid() {
  std::vector<Scenario> grid;
  for (const std::uint64_t d : {10, 40, 120}) {
    for (const double m : {0.0, 32.0, 128.0, 200.0}) {
      grid.push_back({FaultKind::kTdcStuckAt, m, d});
    }
    for (const double m : {-48.0, -16.0, 16.0, 48.0}) {
      grid.push_back({FaultKind::kTdcGlitch, m, d});
    }
    grid.push_back({FaultKind::kTdcDroppedSample, 0.0, d});
    for (const double m : {2.0, 8.0, 16.0}) {
      grid.push_back({FaultKind::kVoltageDroop, m, d});
    }
    grid.push_back({FaultKind::kRoStageFailure, 6.0, d});
    grid.push_back({FaultKind::kCdnDeliveryDrop, 0.0, d});
  }
  return grid;
}

roclk::core::SimulationTrace run_one(roclk::core::LoopSimulator sim,
                                     const FaultSchedule& schedule,
                                     std::size_t cycles) {
  sim.attach_faults(schedule);
  return sim.run(roclk::core::SimulationInputs::none(), cycles);
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

int main() {
  roclk::bench::print_header(
      "R1 — fault-injection sweep",
      "Hardened (guard+watchdog+anti-windup) vs unguarded IIR loop across "
      "the fault taxonomy; true timing errors and time-to-relock.");

  const auto grid = build_grid();

  roclk::TextTable table{{"kind", "magnitude", "duration", "base_err",
                          "hard_err", "relock", "latency", "reconverged"}};
  std::size_t no_worse = 0;
  std::size_t recovered = 0;
  std::size_t stuck_storms_silenced = 0;
  std::size_t stuck_storms = 0;
  for (const Scenario& s : grid) {
    FaultSchedule schedule;
    schedule.add({s.kind, kFaultStart, s.duration, s.magnitude});
    const auto guarded = run_one(
        roclk::core::make_hardened_iir_system(kSetpoint, kTclk), schedule,
        kCycles);
    const auto baseline = run_one(
        roclk::core::make_iir_system(kSetpoint, kTclk), schedule, kCycles);
    const HardeningVerdict verdict =
        roclk::analysis::compare_hardening(guarded, baseline, schedule);
    const FaultRecoveryMetrics& g = verdict.guarded;
    const FaultRecoveryMetrics& b = verdict.baseline;
    no_worse += verdict.guarded_no_worse() ? 1 : 0;
    recovered += verdict.guarded_recovers() ? 1 : 0;
    // The dangerous direction: a stuck-HIGH mux makes the bare controller
    // race into the fast rail.
    if (s.kind == FaultKind::kTdcStuckAt && s.magnitude > kSetpoint) {
      ++stuck_storms;
      if (b.violations_during + b.violations_after > 0 &&
          g.violations_after == 0) {
        ++stuck_storms_silenced;
      }
    }
    table.add_row({roclk::fault::to_string(s.kind), fmt(s.magnitude),
                   std::to_string(s.duration),
                   std::to_string(b.violations_during + b.violations_after),
                   std::to_string(g.violations_during + g.violations_after),
                   g.relocked ? "yes" : "NO",
                   std::to_string(g.relock_latency),
                   g.reconverged ? "yes" : "NO"});
  }
  table.print(std::cout);
  roclk::bench::save_table(table, "fault_sweep");

  roclk::bench::shape_check(
      no_worse == grid.size(),
      "hardened loop commits no more timing errors than the unguarded "
      "baseline in every scenario");
  roclk::bench::shape_check(
      recovered == grid.size(),
      "hardened loop relocks and re-converges after every transient fault");
  roclk::bench::shape_check(
      stuck_storms_silenced == stuck_storms,
      "stuck-HIGH error storms are fully silenced by graceful degradation");
  std::printf("\n%zu/%zu scenarios no-worse, %zu/%zu recovered "
              "(%zu cycles each, fault at cycle %llu)\n",
              no_worse, grid.size(), recovered, grid.size(), kCycles,
              static_cast<unsigned long long>(kFaultStart));
  return roclk::bench::shape_exit_code();
}
