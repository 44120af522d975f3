// Extension bench — ring-oscillator jitter vs the recovered margin.
//
// The paper's RO is noiseless; a real RO jitters, and every stage of RMS
// jitter eats into exactly the safety margin the adaptive loop recovers.
// This bench injects white + random-walk period jitter into the generated
// clock and measures how the needed margin and the relative adaptive
// period degrade — i.e. how clean the RO must be for the architecture to
// keep its advantage.
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/common/ascii_plot.hpp"
#include "roclk/common/table.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/osc/jitter.hpp"

namespace {

roclk::analysis::RunMetrics run_with_jitter(double white_sigma,
                                            double walk_sigma) {
  using namespace roclk;
  const double c = 64.0;
  auto sim = core::make_iir_system(c, c);
  osc::JitterConfig jcfg;
  jcfg.white_sigma = white_sigma;
  jcfg.walk_sigma = walk_sigma;
  osc::JitterModel jitter{jcfg};

  // Jitter rides on the RO's generated period: inject it through e_ro
  // (the TDC does not see it directly — it is a generator artefact).
  const signal::SineWaveform hodv{0.2 * c, 50.0 * c};
  core::SimulationTrace trace;
  trace.reserve(6000);
  for (std::size_t n = 0; n < 6000; ++n) {
    const double t = static_cast<double>(n) * c;
    const double e = hodv.at(t);
    trace.push(sim.step(e + jitter.sample(), e, 0.0));
  }
  return analysis::evaluate_run(trace, c,
                                analysis::fixed_clock_period(c, 0.2 * c),
                                1500);
}

}  // namespace

int main() {
  using namespace roclk;
  namespace rb = roclk::bench;

  rb::print_header(
      "Extension — RO period jitter vs recovered safety margin",
      "IIR RO, HoDV 0.2c at Te = 50c, t_clk = 1c; white and random-walk "
      "jitter in stages RMS.");

  TextTable table{{"white RMS", "walk RMS", "SM (stages)", "rel. period",
                   "violations"}};
  std::vector<double> xs;
  std::vector<double> rel;
  double rel_clean = 0.0;
  for (double sigma : {0.0, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    const auto m = run_with_jitter(sigma, sigma / 8.0);
    table.add_row_values({sigma, sigma / 8.0, m.safety_margin,
                          m.relative_adaptive_period,
                          static_cast<double>(m.violations)});
    xs.push_back(sigma);
    rel.push_back(m.relative_adaptive_period);
    if (sigma == 0.0) rel_clean = m.relative_adaptive_period;
  }
  table.print(std::cout);
  rb::save_table(table, "ext_jitter");

  PlotOptions opts;
  opts.title = "relative adaptive period vs RO jitter";
  opts.x_label = "white jitter RMS (stages)";
  opts.y_label = "<T>/T_fixed";
  AsciiPlot plot{opts};
  plot.add_series("IIR RO", xs, rel, '*');
  std::printf("\n%s\n", plot.render().c_str());

  rb::shape_check(rel.back() > rel_clean + 0.02,
                  "jitter erodes the recovered margin");
  rb::shape_check(rel[2] < 1.0,
                  "sub-stage jitter keeps the adaptive clock ahead of the "
                  "fixed clock");
  std::printf(
      "\nReading: the architecture tolerates sub-stage RO jitter easily; "
      "once cycle-to-cycle\njitter reaches a few stages RMS its margin "
      "advantage drains away — a real design\nconstraint the paper's "
      "noiseless model hides.\n");
  return rb::shape_exit_code();
}
