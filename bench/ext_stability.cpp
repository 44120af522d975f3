// Extension bench — clock stability (Allan deviation) of adaptive clocks.
//
// Adaptation is deliberate period modulation, which classical clock-
// stability metrics count as noise.  This bench computes the overlapping
// Allan deviation of the delivered period for the four systems under the
// paper's HoDV plus realistic RO jitter, showing (a) the adaptation bump
// at averaging windows near the perturbation period, (b) that the
// adaptive clock is *less* "stable" than the fixed clock by design — the
// price of tracking — and (c) that white RO jitter averages down
// identically for all of them.
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "roclk/analysis/stability_metrics.hpp"
#include "roclk/analysis/experiments.hpp"
#include "roclk/common/ascii_plot.hpp"
#include "roclk/common/table.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/osc/jitter.hpp"

namespace {

std::vector<double> run_periods(roclk::analysis::SystemKind kind,
                                double jitter_sigma,
                                double hodv_amplitude = 12.8) {
  using namespace roclk;
  const double c = 64.0;
  auto sim = analysis::make_system(kind, c, c);
  const signal::SineWaveform hodv{hodv_amplitude, 50.0 * c};
  osc::JitterConfig jcfg;
  jcfg.white_sigma = jitter_sigma;
  osc::JitterModel jitter{jcfg};

  core::SimulationTrace trace;
  const std::size_t cycles = 20000;
  trace.reserve(cycles);
  for (std::size_t n = 0; n < cycles; ++n) {
    const double t = static_cast<double>(n) * c;
    const double e = hodv.at(t);
    trace.push(sim.step(e + jitter.sample(), e, 0.0));
  }
  const auto& periods = trace.delivered_period();
  return {periods.begin() + 4000, periods.end()};
}

}  // namespace

int main() {
  using namespace roclk;
  namespace rb = roclk::bench;

  rb::print_header(
      "Extension — Allan deviation of the delivered clock",
      "HoDV 0.2c @ Te = 50c, white RO jitter 0.3 stages RMS, t_clk = 1c.\n"
      "ADEV of fractional period deviation vs averaging window m "
      "(in periods).");

  TextTable table{{"m (periods)", "IIR RO", "TEAtime RO", "Free RO",
                   "Fixed clock"}};

  std::vector<std::vector<double>> curves;
  std::vector<const char*> names{"IIR RO", "TEAtime RO", "Free RO",
                                 "Fixed clock"};
  std::vector<std::vector<analysis::AllanPoint>> adev_curves;
  for (auto kind : analysis::kAllSystems) {
    const auto periods = run_periods(kind, 0.3);
    const auto y = analysis::fractional_deviation(periods, 64.0);
    adev_curves.push_back(analysis::allan_curve(y));
  }

  const std::size_t rows = adev_curves[0].size();
  std::vector<double> ms;
  for (std::size_t r = 0; r < rows; ++r) {
    table.add_row_values({static_cast<double>(adev_curves[0][r].m),
                          adev_curves[0][r].adev, adev_curves[1][r].adev,
                          adev_curves[2][r].adev, adev_curves[3][r].adev},
                         6);
    ms.push_back(static_cast<double>(adev_curves[0][r].m));
  }
  table.print(std::cout);
  rb::save_table(table, "ext_stability_adev");

  PlotOptions opts;
  opts.title = "ADEV vs averaging window";
  opts.x_label = "m (periods)";
  opts.y_label = "ADEV";
  opts.log_x = true;
  AsciiPlot plot{opts};
  const char glyphs[] = {'i', 't', 'f', 'x'};
  for (std::size_t s = 0; s < adev_curves.size(); ++s) {
    std::vector<double> ys;
    for (const auto& p : adev_curves[s]) ys.push_back(p.adev);
    plot.add_series(names[s], ms, ys, glyphs[s]);
  }
  std::printf("\n%s\n", plot.render().c_str());

  // Shape checks.
  auto adev_at = [&](std::size_t curve, std::size_t m_target) {
    for (const auto& p : adev_curves[curve]) {
      if (p.m == m_target) return p.adev;
    }
    return -1.0;
  };
  rb::shape_check(adev_at(0, 16) > adev_at(3, 16),
                  "the adaptive clock's ADEV exceeds the fixed clock's at "
                  "mid windows — adaptation IS period modulation");
  // White-FM averaging, shown on a jitter-only run (the idealised fixed
  // clock in this model carries no oscillator noise of its own).
  {
    const auto periods =
        run_periods(analysis::SystemKind::kFreeRo, 0.3, 0.0);
    const auto y = analysis::fractional_deviation(periods, 64.0);
    const double adev1 = analysis::allan_deviation(y, 1).value();
    const double adev16 = analysis::allan_deviation(y, 16).value();
    rb::shape_check(adev16 < 0.4 * adev1,
                    "jitter-only ADEV averages down with m (white FM)");
  }
  // The adaptation bump: ADEV near the perturbation period (m ~ Te/2 = 25,
  // nearest ladder point 16 or 32) exceeds the small-m value for the IIR.
  rb::shape_check(adev_at(0, 16) > adev_at(0, 1),
                  "adaptation raises ADEV toward the perturbation window "
                  "(the stability price of tracking)");
  std::printf(
      "\nReading: by classic clock-stability standards the adaptive clock "
      "is 'worse' — on\npurpose.  Loads that need a spectrally clean clock "
      "(serial links, RF) must budget for\nthis or stay on a fixed domain; "
      "compute pipelines trade that cleanliness for margin.\n");
  return rb::shape_exit_code();
}
