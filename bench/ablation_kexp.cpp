// Ablation A1 — the k_exp internal scaling of the integer IIR control
// block.  The paper: "kexp value is chosen to ensure that the minimum
// perturbation propagates through almost all the branches of the filter."
// We measure (a) open-loop rounding error of the shift-based datapath vs
// the exact recursion, and (b) closed-loop safety margin, for
// k_exp in {1, 2, 4, 8, 16}.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/common/math.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/loop_simulator.hpp"

int main() {
  using namespace roclk;
  namespace rb = roclk::bench;

  rb::print_header(
      "Ablation A1 — integer scaling k_exp of the IIR control block",
      "Open-loop: mean |hardware - reference| over 200 cycles of a "
      "quantised sinusoidal error.\nClosed-loop: safety margin under the "
      "paper's HoDV (0.2c, Te = 50c, t_clk = 1c).");

  TextTable table{{"k_exp", "open-loop rounding error (stages)",
                   "closed-loop SM (stages)", "closed-loop tau ripple"}};

  const double c = 64.0;
  double err_k1 = 0.0;
  double err_k8 = 0.0;
  for (double k_exp : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    control::IirConfig cfg = control::paper_iir_config();
    cfg.k_exp = k_exp;

    // Open-loop rounding comparison.
    control::IirControlReference ref{cfg};
    control::IirControlHardware hw{cfg};
    ref.reset(c);
    hw.reset(c);
    double acc = 0.0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      const double delta = round_ties_away(
          6.0 * std::sin(2.0 * 3.14159265358979 * i / 40.0));
      acc += std::fabs(ref.step(delta) - hw.step(delta));
    }
    const double open_loop_err = acc / n;
    if (k_exp == 1.0) err_k1 = open_loop_err;
    if (k_exp == 8.0) err_k8 = open_loop_err;

    // Closed-loop margin with this k_exp.
    core::LoopConfig loop_cfg;
    loop_cfg.setpoint_c = c;
    loop_cfg.cdn_delay_stages = c;
    core::LoopSimulator sim{
        loop_cfg, std::make_unique<control::IirControlHardware>(cfg)};
    const auto trace =
        sim.run(core::SimulationInputs::harmonic(0.2 * c, 50.0 * c), 6000);
    const auto metrics = analysis::evaluate_run(
        trace, c, analysis::fixed_clock_period(c, 0.2 * c), 1500);

    table.add_row_values({k_exp, open_loop_err, metrics.safety_margin,
                          metrics.tau_ripple});
  }
  table.print(std::cout);
  rb::save_table(table, "ablation_kexp");

  rb::shape_check(err_k8 < err_k1,
                  "k_exp = 8 (paper) rounds less than an unscaled datapath");
  return rb::shape_exit_code();
}
