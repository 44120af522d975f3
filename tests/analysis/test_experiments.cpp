#include "roclk/analysis/experiments.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "roclk/analysis/metrics.hpp"
#include "roclk/common/stats.hpp"

namespace roclk::analysis {
namespace {

double peak_to_peak(const std::vector<double>& xs) {
  return max_of(xs) - min_of(xs);
}

// Cheap parameters for unit-level checks; the benches use the defaults.
ExperimentParams fast_params() {
  ExperimentParams p;
  p.min_cycles = 2000;
  p.transient_skip = 500;
  p.periods_of_perturbation = 8.0;
  return p;
}

TEST(Experiments, MakeSystemBuildsAllKinds) {
  for (auto kind : kAllSystems) {
    auto sim = make_system(kind, 64.0, 64.0);
    const auto trace = sim.run(core::SimulationInputs::none(), 50);
    EXPECT_EQ(trace.violation_count(), 0u) << to_string(kind);
  }
}

TEST(Experiments, CyclesForScalesWithPerturbationPeriod) {
  const auto p = fast_params();
  EXPECT_LT(cycles_for(p, 10.0), cycles_for(p, 1000.0));
  EXPECT_LE(cycles_for(p, 1e9), p.max_cycles);
}

TEST(Experiments, LogSpaceEndpointsAndMonotonicity) {
  const auto xs = log_space(0.1, 10.0, 9);
  ASSERT_EQ(xs.size(), 9u);
  EXPECT_NEAR(xs.front(), 0.1, 1e-12);
  EXPECT_NEAR(xs.back(), 10.0, 1e-9);
  EXPECT_NEAR(xs[4], 1.0, 1e-9);  // geometric midpoint
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
  EXPECT_THROW((void)log_space(0.0, 1.0, 4), std::logic_error);
  EXPECT_THROW((void)log_space(1.0, 10.0, 1), std::logic_error);
}

TEST(Experiments, MeasureSystemQuietEnvironmentIsPerfect) {
  const auto m = measure_system(SystemKind::kIir, 64.0, 64.0,
                                /*amplitude=*/0.0, /*period=*/1600.0,
                                /*mu=*/0.0, /*fixed=*/76.8,
                                /*cycles=*/2000, /*skip=*/500);
  EXPECT_DOUBLE_EQ(m.safety_margin, 0.0);
  EXPECT_EQ(m.violations, 0u);
  EXPECT_NEAR(m.relative_adaptive_period, 64.0 / 76.8, 1e-6);
}

TEST(Experiments, SimulateSystemMatchesScalarRunBatchBitForBit) {
  // simulate_system runs a corner as a one-lane ensemble with streamed
  // metrics; the scalar reference materialises the trace and walks it
  // again.  Every system kind and CDN quantisation, over corners that
  // span the CDN delay, the mismatch sign and the perturbation period.
  constexpr cdn::DelayQuantization kQuantizations[] = {
      cdn::DelayQuantization::kRound, cdn::DelayQuantization::kFloor,
      cdn::DelayQuantization::kLinearInterp};
  constexpr double kTclkOverC[] = {0.3, 1.0, 1.55};
  constexpr double kMuOverC[] = {-0.08, 0.0, 0.05};
  constexpr double kTeOverC[] = {7.5, 50.0};
  const double c = 64.0;
  const double amplitude = 0.2 * c;
  int checked = 0;
  for (const SystemKind kind : kAllSystems) {
    for (const auto quantization : kQuantizations) {
      for (std::size_t i = 0; i < std::size(kTclkOverC); ++i) {
        const double tclk = kTclkOverC[i] * c;
        const double mu = kMuOverC[i] * c;
        const double te = kTeOverC[i % 2] * c;
        const double margin = kind == SystemKind::kFreeRo ? 3.0 : 0.0;
        const double fixed = fixed_clock_period(c, amplitude, std::abs(mu));
        auto system = make_system(kind, c, tclk, margin, quantization);
        const auto block = core::SimulationInputs::harmonic(amplitude, te, mu)
                               .sample(1500, c);
        const RunMetrics want =
            evaluate_run(system.run_batch(block), c, fixed, 300);
        const RunMetrics got = simulate_system(kind, c, tclk, amplitude, te,
                                               mu, fixed, 1500, 300, margin,
                                               quantization);
        EXPECT_EQ(got.safety_margin, want.safety_margin) << to_string(kind);
        EXPECT_EQ(got.mean_period, want.mean_period) << to_string(kind);
        EXPECT_EQ(got.relative_adaptive_period, want.relative_adaptive_period)
            << to_string(kind);
        EXPECT_EQ(got.violations, want.violations) << to_string(kind);
        EXPECT_EQ(got.tau_ripple, want.tau_ripple) << to_string(kind);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 36);
}

TEST(Experiments, SimulateSystemEnsembleIsTileInvariant) {
  // simulate_system_ensemble samples its waveform in segments of 8192
  // cycles at any lane count, each run by one kernel call per chunk.
  // Runs spanning several segments (3 for the 16-lane grid, 5 for the
  // one-lane corner, each with a partial last one) must equal the scalar
  // reference.
  const double c = 64.0;
  const double amplitude = 0.2 * c;
  const double te = 40.0 * c;
  const double fixed = fixed_clock_period(c, amplitude, 0.1 * c);
  std::vector<double> tclks;
  std::vector<double> mus;
  for (std::size_t i = 0; i < 16; ++i) {
    tclks.push_back((0.5 + 0.1 * static_cast<double>(i)) * c);
    mus.push_back((-0.1 + 0.0125 * static_cast<double>(i)) * c);
  }
  const auto reference = [&](double tclk, double mu, std::size_t cycles) {
    auto system = make_system(SystemKind::kIir, c, tclk);
    const auto block =
        core::SimulationInputs::harmonic(amplitude, te, mu).sample(cycles, c);
    return evaluate_run(system.run_batch(block), c, fixed, 300);
  };
  const auto expect_same = [](const RunMetrics& got, const RunMetrics& want) {
    EXPECT_EQ(got.safety_margin, want.safety_margin);
    EXPECT_EQ(got.mean_period, want.mean_period);
    EXPECT_EQ(got.relative_adaptive_period, want.relative_adaptive_period);
    EXPECT_EQ(got.violations, want.violations);
    EXPECT_EQ(got.tau_ripple, want.tau_ripple);
  };

  const std::vector<RunMetrics> grid = simulate_system_ensemble(
      SystemKind::kIir, c, tclks, amplitude, te, mus, fixed, 18000, 300, 0.0,
      cdn::DelayQuantization::kLinearInterp, nullptr);
  ASSERT_EQ(grid.size(), tclks.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same(grid[i], reference(tclks[i], mus[i], 18000));
  }
  expect_same(simulate_system(SystemKind::kIir, c, tclks[5], amplitude, te,
                              mus[5], fixed, 40000, 300),
              reference(tclks[5], mus[5], 40000));
}

TEST(Experiments, Fig7WindowAndSystems) {
  const auto result = fig7_timing_error(25.0, 1.0, 500, 600, fast_params());
  EXPECT_EQ(result.traces.size(), 4u);
  for (const auto& t : result.traces) {
    EXPECT_EQ(t.timing_error.size(), 101u);
  }
  // The fixed clock's error amplitude ~ the full perturbation (12.8).
  const auto& fixed = result.traces[3];
  EXPECT_EQ(fixed.system, SystemKind::kFixedClock);
  EXPECT_NEAR(peak_to_peak(fixed.timing_error), 2.0 * 12.8, 2.0);
}

TEST(Experiments, Fig7SlowerPerturbationShrinksAdaptiveError) {
  // The paper's Fig. 7 storyline: from Te = 25c to 50c the adaptive error
  // shrinks while the fixed clock's stays put.
  const auto fast = fig7_timing_error(25.0, 1.0, 500, 600, fast_params());
  const auto slow = fig7_timing_error(50.0, 1.0, 500, 600, fast_params());
  const auto amp = [](const Fig7Trace& t) {
    return peak_to_peak(t.timing_error);
  };
  // IIR trace (index 0) improves markedly.
  EXPECT_LT(amp(slow.traces[0]), 0.7 * amp(fast.traces[0]));
  // Fixed clock (index 3) does not care.
  EXPECT_NEAR(amp(slow.traces[3]), amp(fast.traces[3]), 1.5);
}

TEST(Experiments, Fig8RowStructure) {
  const std::vector<double> xs{0.5, 1.0};
  const auto rows = fig8_cdn_delay_sweep(xs, 100.0, fast_params());
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_GT(row.iir, 0.5);
    EXPECT_LT(row.iir, 1.4);
    EXPECT_GT(row.teatime, 0.5);
    EXPECT_GT(row.free_ro, 0.5);
  }
  EXPECT_DOUBLE_EQ(rows[0].x, 0.5);
}

TEST(Experiments, Fig8AdaptiveBeatsFixedAtSlowPerturbation) {
  // At T_e = 200c, t_clk = 1c all three adaptive systems must be below 1.
  const std::vector<double> xs{200.0};
  const auto rows = fig8_frequency_sweep(xs, 1.0, fast_params());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_LT(rows[0].iir, 1.0);
  EXPECT_LT(rows[0].teatime, 1.0);
  EXPECT_LT(rows[0].free_ro, 1.0);
}

TEST(Experiments, Fig9CellStructureAndFreeRoFlat) {
  const std::vector<double> mu{-0.2, 0.0, 0.2};
  const auto cell = fig9_mismatch_sweep(1.0, 37.5, mu, fast_params());
  ASSERT_EQ(cell.mu_over_c.size(), 3u);
  ASSERT_EQ(cell.iir.size(), 3u);
  // The free RO cannot react to mu and its margin is design-fixed, so its
  // curve must be flat across the sweep.
  EXPECT_NEAR(cell.free_ro[0], cell.free_ro[2], 1e-9);
  // Closed-loop systems profit from positive mu (shorter period).
  EXPECT_LT(cell.iir[2], cell.iir[0]);
  EXPECT_LT(cell.teatime[2], cell.teatime[0]);
}

TEST(Experiments, WorkedExampleTranslatesToNanoseconds) {
  // relative = 0.9 at T_fixed = 76.8 stages (1.2 ns): adaptive = 1.08 ns.
  const auto ex = worked_example(0.9, 76.8, 64.0);
  EXPECT_NEAR(ex.fixed_period_ns, 1.2, 1e-12);
  EXPECT_NEAR(ex.adaptive_period_ns, 1.08, 1e-12);
  EXPECT_NEAR(ex.margin_saved_ns, 0.12, 1e-12);
  EXPECT_NEAR(ex.margin_reduction, 0.6, 1e-9);
}

}  // namespace
}  // namespace roclk::analysis
