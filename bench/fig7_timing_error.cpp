// Experiment E2 — paper Fig. 7: timing error tau - c over period numbers
// 500..600 for the IIR RO, free RO, TEAtime RO and a fixed clock, under a
// harmonic HoDV of amplitude 0.2c with CDN delay t_clk = 1c, for
// perturbation periods Te = {25c, 37.5c, 50c}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "roclk/analysis/experiments.hpp"
#include "roclk/common/ascii_plot.hpp"
#include "roclk/common/stats.hpp"
#include "roclk/common/table.hpp"

int main() {
  using namespace roclk;
  using analysis::SystemKind;
  namespace rb = roclk::bench;

  rb::print_header(
      "Fig. 7 — timing error tau - c for different clock generation systems",
      "c = 64, HoDV amplitude 0.2c, t_clk = 1c = one clock period.\n"
      "Top: Te = 25c; middle: Te = 37.5c; bottom: Te = 50c.");

  std::vector<double> worst_iir;  // per panel, for the shape checks
  std::vector<double> worst_fixed;

  for (double te_over_c : {25.0, 37.5, 50.0}) {
    const auto result = analysis::fig7_timing_error(te_over_c);
    std::printf("--- perturbation period Te = %.1fc ---\n", te_over_c);

    PlotOptions opts;
    opts.title = "tau - c, periods 500..600";
    opts.x_label = "period number";
    opts.height = 14;
    opts.y_lo = -14.0;
    opts.y_hi = 14.0;
    AsciiPlot plot{opts};
    static constexpr char kGlyphs[] = {'i', 't', 'f', 'x'};  // trace order

    TextTable table{{"system", "min(tau-c)", "max(tau-c)", "peak-to-peak",
                     "needed SM (stages)"}};
    std::vector<double> xs(result.traces[0].timing_error.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] = static_cast<double>(result.first_period + i);
    }
    for (std::size_t s = 0; s < result.traces.size(); ++s) {
      const auto& tr = result.traces[s];
      const double lo = min_of(tr.timing_error);
      const double hi = max_of(tr.timing_error);
      table.add_row({std::string{analysis::to_string(tr.system)},
                     format_double(lo, 2), format_double(hi, 2),
                     format_double(hi - lo, 2),
                     format_double(std::max(0.0, -lo), 2)});
      plot.add_series(analysis::to_string(tr.system), xs, tr.timing_error,
                      kGlyphs[s]);
      if (tr.system == SystemKind::kIir) worst_iir.push_back(-lo);
      if (tr.system == SystemKind::kFixedClock) worst_fixed.push_back(-lo);
    }
    table.print(std::cout);
    std::printf("\n%s\n", plot.render().c_str());

    // CSV with the full traces, one column per system.
    TextTable csv{{"period", "iir", "teatime", "free_ro", "fixed"}};
    for (std::size_t i = 0; i < xs.size(); ++i) {
      csv.add_row_values({xs[i], result.traces[0].timing_error[i],
                          result.traces[1].timing_error[i],
                          result.traces[2].timing_error[i],
                          result.traces[3].timing_error[i]});
    }
    std::string name = "fig7_te_" + std::to_string(te_over_c);
    std::replace(name.begin(), name.end(), '.', '_');
    rb::save_table(csv, name);
  }

  // Paper's reading of Fig. 7.
  rb::shape_check(worst_iir[0] <= worst_fixed[0] + 0.5,
                  "Te=25c: adaptive margin close to (slightly below) fixed");
  rb::shape_check(worst_iir[1] < worst_iir[0],
                  "Te=37.5c: appreciable adaptation error reduction vs 25c");
  rb::shape_check(worst_iir[2] < worst_iir[1] + 0.5 &&
                      worst_iir[2] < 0.4 * worst_fixed[2],
                  "Te=50c: adaptation error reduced to a minimum");
  return rb::shape_exit_code();
}
