// Extension bench — truly *dynamic* heterogeneous variation (HeDV).
//
// The paper's Fig. 9 sweeps a static mismatch mu; its taxonomy and
// conclusions, though, call out heterogeneous *dynamic* variations (SSN,
// IR drop, hotspots) as the real threat in modern ICs.  This bench makes
// mu itself a sinusoid, mu(t) = mu0 sin(2 pi t / T_mu), and sweeps its
// period: unlike a homogeneous variation (which the RO partially tracks
// for free), a TDC-side variation is visible only through the loop, so
// the closed loop's bandwidth is the *only* defence — and the free RO has
// none at all.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "roclk/analysis/experiments.hpp"
#include "roclk/analysis/frequency_response.hpp"
#include "roclk/common/ascii_plot.hpp"
#include "roclk/common/table.hpp"
#include "roclk/control/iir_control.hpp"

namespace {

roclk::analysis::RunMetrics run_dynamic_mu(roclk::analysis::SystemKind kind,
                                           double tmu_over_c) {
  using namespace roclk;
  const double c = 64.0;
  const double mu0 = 0.15 * c;
  auto sim = analysis::make_system(kind, c, c);
  core::SimulationInputs inputs;
  inputs.mu = [mu0, tmu_over_c, c](double t) {
    return mu0 * std::sin(kTwoPi * t / (tmu_over_c * c));
  };
  const auto cycles = static_cast<std::size_t>(
      std::max(8000.0, 15.0 * tmu_over_c + 3000.0));
  const auto skip = static_cast<std::size_t>(
      std::max(2000.0, 3.0 * tmu_over_c));
  const auto trace = sim.run(inputs, cycles);
  return analysis::evaluate_run(
      trace, c, analysis::fixed_clock_period(c, 0.0, mu0), skip);
}

}  // namespace

int main() {
  using namespace roclk;
  namespace rb = roclk::bench;

  rb::print_header(
      "Extension — dynamic heterogeneous mismatch mu(t)",
      "mu(t) = 0.15c * sin(2 pi t / T_mu), no HoDV, t_clk = 1c.\n"
      "A TDC-side variation is invisible to the RO: only loop bandwidth "
      "helps.\nT_fixed budgets the worst mu: 1.15c.");

  TextTable table{{"T_mu/c", "IIR SM", "IIR rel.T", "TEAtime SM",
                   "TEAtime rel.T", "Free RO SM", "Free RO rel.T"}};
  std::vector<double> xs;
  std::vector<double> iir_rel;
  std::vector<double> free_rel;
  for (double tmu : {12.5, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0}) {
    const auto iir = run_dynamic_mu(analysis::SystemKind::kIir, tmu);
    const auto tea = run_dynamic_mu(analysis::SystemKind::kTeaTime, tmu);
    const auto free_ro = run_dynamic_mu(analysis::SystemKind::kFreeRo, tmu);
    table.add_row_values({tmu, iir.safety_margin,
                          iir.relative_adaptive_period, tea.safety_margin,
                          tea.relative_adaptive_period,
                          free_ro.safety_margin,
                          free_ro.relative_adaptive_period});
    xs.push_back(tmu);
    iir_rel.push_back(iir.relative_adaptive_period);
    free_rel.push_back(free_ro.relative_adaptive_period);
  }
  table.print(std::cout);
  rb::save_table(table, "ext_dynamic_mismatch");

  PlotOptions opts;
  opts.title = "relative adaptive period vs dynamic-mismatch period";
  opts.x_label = "T_mu/c";
  opts.y_label = "<T>/T_fixed";
  opts.log_x = true;
  AsciiPlot plot{opts};
  plot.add_series("IIR RO", xs, iir_rel, 'i');
  plot.add_series("Free RO", xs, free_rel, 'f');
  std::printf("\n%s\n", plot.render().c_str());

  // The free RO gains nothing from mu adaptation at ANY frequency (its
  // margin must always cover the full swing); the closed loop wins once
  // T_mu clears its bandwidth.
  rb::shape_check(iir_rel.back() < free_rel.back() - 0.05,
                  "closed loop nulls slow TDC-side variation; the free RO "
                  "never can");
  rb::shape_check(iir_rel.front() > iir_rel.back() + 0.05,
                  "fast mu defeats the loop bandwidth (eq. 5 rolls off)");
  const double flat =
      *std::max_element(free_rel.begin(), free_rel.end()) -
      *std::min_element(free_rel.begin(), free_rel.end());
  rb::shape_check(flat < 0.05,
                  "free RO performance is frequency-independent for "
                  "TDC-side variation (it simply pays the swing)");
  return rb::shape_exit_code();
}
