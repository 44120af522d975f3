// Experiment E1 — paper Fig. 2: CDN-delay-induced mismatch dnu/nu0 as a
// function of t_clk/T_nu for a harmonic and a single-event (triangular)
// HoDV.  Analytic curves (eqs. 2-3) cross-validated against (a) direct
// numerical evaluation of eq. 1 and (b) free-running-RO loop simulations.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "roclk/analysis/analytic.hpp"
#include "roclk/analysis/experiments.hpp"
#include "roclk/common/ascii_plot.hpp"
#include "roclk/common/math.hpp"
#include "roclk/common/table.hpp"
#include "roclk/signal/waveform.hpp"

int main() {
  using namespace roclk;
  namespace rb = roclk::bench;

  rb::print_header(
      "Fig. 2 — mismatch induced between the RO and a CP by the CDN delay",
      "x axis: t_clk/T_nu; y axis: dnu/nu0.  Harmonic (eq. 2) vs single "
      "triangular event (eq. 3).");

  TextTable table{{"tclk/Tnu", "harmonic (eq2)", "harmonic (numeric eq1)",
                   "single event (eq3)", "single event (numeric eq1)"}};

  const double period = 512.0;
  const double nu0 = 1.0;
  signal::SineWaveform harmonic{nu0, period};
  signal::TrianglePulseWaveform pulse{nu0, 4.0 * period, period};

  std::vector<double> xs;
  std::vector<double> y_harm;
  std::vector<double> y_single;
  for (int i = 0; i <= 160; ++i) {
    const double ratio = 4.0 * i / 160.0;
    const double t_clk = ratio * period;
    const double harm = analysis::harmonic_worst_mismatch(t_clk, period, nu0);
    const double single =
        analysis::single_event_worst_mismatch(t_clk, period, nu0);
    xs.push_back(ratio);
    y_harm.push_back(harm);
    y_single.push_back(single);
    if (i % 8 == 0) {
      // Numeric eq. 1 evaluation at the table's coarser grid.
      const double harm_num =
          analysis::numeric_worst_mismatch(harmonic, period, t_clk);
      double single_num = 0.0;
      for (int k = 0; k <= 12000; ++k) {
        const double t = 3.0 * period + k * period / 2000.0;
        single_num = std::max(
            single_num, std::fabs(analysis::cdn_mismatch(pulse, t, t_clk)));
      }
      table.add_row_values({ratio, harm, harm_num, single, single_num});
    }
  }

  table.print(std::cout);
  rb::save_table(table, "fig2_cdn_mismatch");

  PlotOptions opts;
  opts.title = "Fig. 2 reproduction: dnu/nu0 vs t_clk/T_nu";
  opts.x_label = "t_clk / T_nu";
  opts.y_label = "dnu / nu0";
  opts.height = 18;
  AsciiPlot plot{opts};
  plot.add_series("harmonic HoDV", xs, y_harm, '*');
  plot.add_series("single event HoDV", xs, y_single, 'o');
  std::printf("\n%s\n", plot.render().c_str());

  // Shape assertions straight from the paper's discussion of Fig. 2.
  rb::shape_check(
      analysis::harmonic_worst_mismatch(period, period, nu0) < 1e-9,
      "harmonic curve has zero-mismatch islands at integer t_clk/T_nu");
  rb::shape_check(
      analysis::harmonic_worst_mismatch(period / 2.0, period, nu0) > 1.99,
      "harmonic curve peaks at 2*nu0 at half-integer t_clk/T_nu");
  rb::shape_check(analysis::harmonic_ro_beneficial(period / 6.0 * 0.99,
                                                   period) &&
                      !analysis::harmonic_ro_beneficial(period / 6.0 * 1.01,
                                                        period),
                  "benefit boundary sits at t_clk = T_nu/6");
  rb::shape_check(
      analysis::single_event_worst_mismatch(0.49 * period, period, nu0) <
              nu0 &&
          analysis::single_event_worst_mismatch(0.51 * period, period, nu0) ==
              nu0,
      "single-event curve saturates at nu0 for t_clk > T_nu/2");

  // Loop-simulation cross-check: the free-running RO's *observed* timing
  // error under a harmonic HoDV matches eq. 2 evaluated at the loop's
  // effective delay (CDN plus the RO and TDC registers: (M+1) periods).
  rb::print_header("Cross-check", "free-RO simulation vs eq. 2");
  TextTable sim_table{{"tclk/c", "Te/c", "sim worst |tau-c|", "eq2 at (M+1)c"}};
  const double c = 64.0;
  const double amp = 0.2 * c;
  for (double tclk_over_c : {0.0, 1.0, 2.0, 4.0}) {
    for (double te_over_c : {25.0, 50.0}) {
      auto sim = analysis::make_system(analysis::SystemKind::kFreeRo, c,
                                       tclk_over_c * c);
      auto trace = sim.run(
          core::SimulationInputs::harmonic(amp, te_over_c * c), 6000);
      const auto err = trace.timing_error(c);
      double worst = 0.0;
      for (std::size_t i = 1000; i < err.size(); ++i) {
        worst = std::max(worst, std::fabs(err[i]));
      }
      const double m_eff = round_ties_away(tclk_over_c) + 1.0;
      const double expected = analysis::harmonic_worst_mismatch(
          m_eff * c, te_over_c * c, amp);
      sim_table.add_row_values({tclk_over_c, te_over_c, worst, expected});
    }
  }
  sim_table.print(std::cout);
  rb::save_table(sim_table, "fig2_simulation_crosscheck");
  return rb::shape_exit_code();
}
