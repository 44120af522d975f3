// Experiments E3/E4 — paper Fig. 8: relative adaptive period
// <T_clk>/T_fixed under a harmonic HoDV.
//   Upper plot: Te = 100c fixed, sweep t_clk/c in [0.1, 10] (log).
//   Lower plot: t_clk = 1c fixed, sweep Te/c in [1, 1000] (log).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "roclk/analysis/experiments.hpp"
#include "roclk/common/ascii_plot.hpp"
#include "roclk/common/table.hpp"

namespace {

void emit(const std::vector<roclk::analysis::RelativePeriodRow>& rows,
          const char* x_name, const char* csv_name, const char* title) {
  using namespace roclk;
  namespace rb = roclk::bench;

  TextTable table{{x_name, "IIR RO", "TEAtime RO", "Free RO"}};
  std::vector<double> xs;
  std::vector<double> iir;
  std::vector<double> tea;
  std::vector<double> free_ro;
  for (const auto& row : rows) {
    table.add_row_values({row.x, row.iir, row.teatime, row.free_ro});
    xs.push_back(row.x);
    iir.push_back(row.iir);
    tea.push_back(row.teatime);
    free_ro.push_back(row.free_ro);
  }
  table.print(std::cout);
  rb::save_table(table, csv_name);

  PlotOptions opts;
  opts.title = title;
  opts.x_label = x_name;
  opts.y_label = "<T_clk>/T_fixed";
  opts.log_x = true;
  opts.height = 16;
  AsciiPlot plot{opts};
  plot.add_series("IIR RO", xs, iir, 'i');
  plot.add_series("TEAtime RO", xs, tea, 't');
  plot.add_series("Free RO", xs, free_ro, 'f');
  std::printf("\n%s\n", plot.render().c_str());
}

}  // namespace

int main() {
  using namespace roclk;
  namespace rb = roclk::bench;

  rb::print_header(
      "Fig. 8 (upper) — relative adaptive period vs CDN delay",
      "Te = 100c; t_clk/c swept logarithmically over [0.1, 10].\n"
      "A value below 1 means the adaptive clock recovered safety margin.");
  const auto tclk_grid = analysis::log_space(0.1, 10.0, 21);
  const auto upper = analysis::fig8_cdn_delay_sweep(tclk_grid, 100.0);
  emit(upper, "tclk/c", "fig8_upper_cdn_sweep",
       "Fig. 8 upper: <T>/T_fixed vs t_clk/c  (Te = 100c)");

  rb::print_header(
      "Fig. 8 (lower) — relative adaptive period vs perturbation period",
      "t_clk = 1c; Te/c swept logarithmically over [2, 1000].  (The paper's "
      "axis starts at 1,\nbut one sample per period aliases a Te = 1c tone "
      "to DC in any per-cycle model, so the\nsweep starts at the Nyquist "
      "limit of the discrete loop.)");
  const auto te_grid = analysis::log_space(2.0, 1000.0, 25);
  const auto lower = analysis::fig8_frequency_sweep(te_grid, 1.0);
  emit(lower, "Te/c", "fig8_lower_frequency_sweep",
       "Fig. 8 lower: <T>/T_fixed vs Te/c  (t_clk = 1c)");

  // The paper's reading of Fig. 8.
  {
    // Upper: for t_clk/c <= ~5 the IIR RO is the best (or tied best).
    int iir_best = 0;
    int count = 0;
    for (const auto& row : upper) {
      if (row.x > 5.0) continue;
      ++count;
      if (row.iir <= row.teatime + 0.01 && row.iir <= row.free_ro + 0.01) {
        ++iir_best;
      }
    }
    rb::shape_check(iir_best >= count * 2 / 3,
                    "upper: IIR RO best (or tied) over most of t_clk/c <= 5");
    // Upper: large CDN delay degrades every adaptive system toward/past 1.
    const auto& last = upper.back();
    const auto& first = upper.front();
    rb::shape_check(last.iir > first.iir && last.free_ro > first.free_ro,
                    "upper: relative period degrades as t_clk grows");
  }
  {
    // Lower: at high frequency (small Te) adaptation buys little; free RO
    // is the first to dip under the fixed clock; for Te/c > 200 IIR and
    // free RO converge.
    const auto& fastest = lower.front();
    rb::shape_check(fastest.free_ro <= fastest.iir + 0.02 &&
                        fastest.free_ro <= fastest.teatime + 0.02,
                    "lower: free RO best at the highest frequencies");
    double gap = 0.0;
    int tail = 0;
    for (const auto& row : lower) {
      if (row.x < 200.0) continue;
      gap += std::fabs(row.iir - row.free_ro);
      ++tail;
    }
    rb::shape_check(tail > 0 && gap / tail < 0.02,
                    "lower: IIR RO ~ free RO for Te/c > 200");
    const auto& slowest = lower.back();
    rb::shape_check(slowest.iir < 0.9,
                    "lower: slow perturbations recover real margin (<0.9)");
  }
  return rb::shape_exit_code();
}
