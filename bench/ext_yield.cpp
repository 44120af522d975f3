// Extension bench — parametric yield vs safety margin (the introduction's
// economics, after Bowman et al. [1][3]): a Monte-Carlo over fabricated
// chips compares the fixed clock's yield-vs-margin curve against the
// adaptive clock, and quantifies how the required margin grows with the
// number of critical paths.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "roclk/analysis/yield.hpp"
#include "roclk/common/ascii_plot.hpp"
#include "roclk/common/table.hpp"

int main() {
  using namespace roclk;
  namespace rb = roclk::bench;

  rb::print_header(
      "Extension — parametric yield vs clock safety margin",
      "1000 Monte-Carlo chips, 64 critical paths each; D2D sigma 5%, WID "
      "4%, RND 2%.\nFixed clock: yield(margin).  Adaptive clock: yield "
      "limited only by RO stretch range.");

  analysis::YieldConfig config;
  config.chips = 1000;
  std::vector<double> margins;
  for (int m = 0; m <= 28; m += 2) margins.push_back(m);
  const auto curve = analysis::yield_curve(margins, config);

  TextTable table{{"margin (stages)", "fixed-clock yield",
                   "adaptive yield"}};
  std::vector<double> xs;
  std::vector<double> fixed;
  std::vector<double> adaptive;
  for (const auto& p : curve.points) {
    table.add_row_values({p.margin_stages, p.fixed_yield, p.adaptive_yield});
    xs.push_back(p.margin_stages);
    fixed.push_back(p.fixed_yield);
    adaptive.push_back(p.adaptive_yield);
  }
  table.print(std::cout);
  rb::save_table(table, "ext_yield_curve");

  PlotOptions opts;
  opts.title = "yield vs fixed-clock safety margin";
  opts.x_label = "margin (stages over c = 64)";
  opts.y_label = "yield";
  opts.y_lo = 0.0;
  opts.y_hi = 1.05;
  AsciiPlot plot{opts};
  plot.add_series("fixed clock", xs, fixed, 'x');
  plot.add_series("adaptive clock", xs, adaptive, 'a');
  std::printf("\n%s\n", plot.render().c_str());

  std::printf("worst-path stats: mean %.2f, p99 %.2f stages; adaptive mean "
              "period %.2f stages\n",
              curve.mean_worst_path, curve.p99_worst_path,
              curve.mean_adaptive_period);

  const auto cmp = analysis::compare_margins(0.99, config);
  std::printf("for 99%% yield: fixed clock margin %.2f stages vs adaptive "
              "mean extra period %.2f stages (saves %.2f)\n",
              cmp.fixed_margin_needed, cmp.adaptive_mean_extra_period,
              cmp.margin_saved);

  rb::shape_check(adaptive.front() > fixed.front(),
                  "at zero design margin the adaptive clock out-yields the "
                  "fixed clock");
  rb::shape_check(cmp.margin_saved > 0.0,
                  "adaptive clocking converts a population-p99 margin into "
                  "a per-chip measured period");

  // Bowman's scaling: more critical paths, more margin.
  TextTable paths_table{{"paths per chip", "fixed margin for 99% yield"}};
  double prev = -1.0;
  bool monotone = true;
  for (std::size_t paths : {4u, 16u, 64u, 256u}) {
    analysis::YieldConfig pc = config;
    pc.chips = 500;
    pc.paths = paths;
    const auto c = analysis::compare_margins(0.99, pc);
    paths_table.add_row_values({static_cast<double>(paths),
                                c.fixed_margin_needed});
    if (c.fixed_margin_needed < prev) monotone = false;
    prev = c.fixed_margin_needed;
  }
  std::printf("\n");
  paths_table.print(std::cout);
  rb::save_table(paths_table, "ext_yield_vs_paths");
  rb::shape_check(monotone,
                  "more critical paths demand more margin for the same "
                  "yield (paper refs [1][3])");
  return rb::shape_exit_code();
}
