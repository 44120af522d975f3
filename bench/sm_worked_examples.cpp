// Experiments E7/E8 — the worked examples closing paper sections IV-A and
// IV-B, with measured (not assumed) adaptation:
//   IV-A: c = 64 <-> 1 ns; 20% HoDV forces a fixed clock to 1.2 ns; the
//         adaptive clock's measured relative period converts to ns and a
//         safety-margin reduction (paper quotes 60% for a 10% c-reduction).
//   IV-B: + 20% HeDV mismatch forces the fixed clock to 1.4 ns; paper
//         quotes a 70% margin reduction for a 20% c-reduction.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "roclk/analysis/experiments.hpp"
#include "roclk/common/table.hpp"

int main() {
  using namespace roclk;
  using analysis::SystemKind;
  namespace rb = roclk::bench;

  analysis::ExperimentParams params;
  const double c = params.setpoint_c;
  const double amplitude = params.amplitude_frac * c;

  rb::print_header(
      "Worked example IV-A — HoDV only",
      "c = 64 stages <-> 1 ns.  T_fixed = 1.2 ns.  Te = 100c, t_clk = 1c.");
  {
    const double fixed = analysis::fixed_clock_period(c, amplitude);
    TextTable table{{"system", "rel. period", "adaptive period (ns)",
                     "margin saved (ns)", "SM reduction (%)"}};
    for (auto kind : analysis::kAdaptiveSystems) {
      const auto m = analysis::measure_system(
          kind, c, c, amplitude, 100.0 * c, 0.0, fixed,
          analysis::cycles_for(params, 100.0), 1500);
      const auto ex =
          analysis::worked_example(m.relative_adaptive_period, fixed, c);
      table.add_row({std::string{analysis::to_string(kind)},
                     format_double(m.relative_adaptive_period, 3),
                     format_double(ex.adaptive_period_ns, 3),
                     format_double(ex.margin_saved_ns, 3),
                     format_double(100.0 * ex.margin_reduction, 1)});
      if (kind == SystemKind::kIir) {
        rb::shape_check(ex.margin_reduction > 0.4,
                        "IV-A: IIR RO recovers a large fraction of the "
                        "0.2 ns margin (paper example: 60%)");
      }
    }
    table.print(std::cout);
    rb::save_table(table, "worked_example_iva");
  }

  rb::print_header(
      "Worked example IV-B — HoDV + HeDV mismatch",
      "T_fixed = 1.4 ns (c -> 90 in the paper's stage units).  Te = 100c,\n"
      "t_clk = 1c, mu = +0.2c (TDC region faster than the RO).");
  {
    const double fixed = analysis::fixed_clock_period(c, amplitude, 0.2 * c);
    TextTable table{{"system", "rel @ mu=-0.2c", "rel @ mu=0",
                     "rel @ mu=+0.2c", "mean rel.", "adaptive (ns)",
                     "SM reduction (%)"}};
    for (auto kind : analysis::kAdaptiveSystems) {
      // The mismatch a given chip draws is unknown at design time; average
      // the measured relative period across the mu range the fixed clock
      // must budget for.
      double rel_sum = 0.0;
      double rel_at[3] = {0.0, 0.0, 0.0};
      const double mus[3] = {-0.2 * c, 0.0, 0.2 * c};
      for (int i = 0; i < 3; ++i) {
        const auto m = analysis::measure_system(
            kind, c, c, amplitude, 100.0 * c, mus[i], fixed,
            analysis::cycles_for(params, 100.0), 1500);
        rel_at[i] = m.relative_adaptive_period;
        rel_sum += rel_at[i];
      }
      const double rel_mean = rel_sum / 3.0;
      const auto ex = analysis::worked_example(rel_mean, fixed, c);
      table.add_row({std::string{analysis::to_string(kind)},
                     format_double(rel_at[0], 3), format_double(rel_at[1], 3),
                     format_double(rel_at[2], 3), format_double(rel_mean, 3),
                     format_double(ex.adaptive_period_ns, 3),
                     format_double(100.0 * ex.margin_reduction, 1)});
      if (kind == SystemKind::kIir) {
        rb::shape_check(ex.margin_reduction > 0.55,
                        "IV-B: with mismatch margin included the closed "
                        "loop recovers even more (paper example: 70%)");
      }
    }
    table.print(std::cout);
    rb::save_table(table, "worked_example_ivb");
  }

  std::printf(
      "\nNote: the paper's 60%%/70%% figures are illustrative arithmetic "
      "('if the adaptive clock\nallows reducing c by 10%%/20%%'); the rows "
      "above substitute *measured* relative periods\ninto the same "
      "conversion.\n");
  return rb::shape_exit_code();
}
