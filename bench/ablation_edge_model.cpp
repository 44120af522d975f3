// Ablation A5 — discrete sample-domain model (paper Fig. 4 / our
// LoopSimulator) vs the continuous event-driven edge simulator.  The paper
// evaluates everything on the discrete model; this bench quantifies what
// that abstraction costs across perturbation frequencies.
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/edge_simulator.hpp"
#include "roclk/core/loop_simulator.hpp"

int main() {
  using namespace roclk;
  namespace rb = roclk::bench;

  rb::print_header(
      "Ablation A5 — discrete (Fig. 4) model vs continuous edge simulation",
      "IIR RO, amplitude 0.2c, t_clk = 1c.  The discrete model linearises "
      "the RO/TDC and\nquantises the CDN to M[n] samples; the edge "
      "simulator does neither.");

  TextTable table{{"Te/c", "SM discrete", "SM edge", "mean T discrete",
                   "mean T edge", "rel.period discrete", "rel.period edge"}};

  const double c = 64.0;
  double worst_rel_gap = 0.0;
  for (double te_over_c : {25.0, 50.0, 100.0, 200.0, 400.0}) {
    const std::size_t cycles =
        2000 + static_cast<std::size_t>(12.0 * te_over_c);
    const std::size_t skip = 1000 + static_cast<std::size_t>(3.0 * te_over_c);
    const double fixed = analysis::fixed_clock_period(c, 0.2 * c);

    auto discrete = core::make_iir_system(c, c);
    const auto d_trace = discrete.run(
        core::SimulationInputs::harmonic(0.2 * c, te_over_c * c), cycles);
    const auto d_metrics = analysis::evaluate_run(d_trace, c, fixed, skip);

    core::EdgeSimConfig edge_cfg;
    edge_cfg.setpoint_c = c;
    edge_cfg.cdn_delay_stages = c;
    core::EdgeSimulator edge{edge_cfg,
                             std::make_unique<control::IirControlHardware>()};
    const auto e_trace = edge.run(
        core::EdgeSimInputs::homogeneous(
            std::make_shared<signal::SineWaveform>(0.2, te_over_c * c)),
        cycles);
    const auto e_metrics = analysis::evaluate_run(e_trace, c, fixed, skip);

    table.add_row_values({te_over_c, d_metrics.safety_margin,
                          e_metrics.safety_margin, d_metrics.mean_period,
                          e_metrics.mean_period,
                          d_metrics.relative_adaptive_period,
                          e_metrics.relative_adaptive_period});
    worst_rel_gap =
        std::max(worst_rel_gap,
                 std::fabs(d_metrics.relative_adaptive_period -
                           e_metrics.relative_adaptive_period));
  }
  table.print(std::cout);
  rb::save_table(table, "ablation_edge_model");

  std::printf("\nworst relative-period gap between models: %.4f\n",
              worst_rel_gap);
  rb::shape_check(worst_rel_gap < 0.05,
                  "discrete Fig. 4 abstraction tracks the event-driven "
                  "model within a few percent");
  return rb::shape_exit_code();
}
