// Extension bench — throughput vs set-point with error detection + replay
// (the optimisation problem behind the paper's "choose the correct
// set-point c that ... maximizes the computation throughput"), and the
// runtime governor's ability to find the knee without design knowledge.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "roclk/common/ascii_plot.hpp"
#include "roclk/common/table.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/control/setpoint_governor.hpp"
#include "roclk/core/throughput_model.hpp"

namespace {

roclk::core::LoopSimulator make_loop(double setpoint) {
  roclk::core::LoopConfig cfg;
  cfg.setpoint_c = setpoint;
  cfg.cdn_delay_stages = 64.0;
  return roclk::core::LoopSimulator{
      cfg, std::make_unique<roclk::control::IirControlHardware>()};
}

}  // namespace

int main() {
  using namespace roclk;
  namespace rb = roclk::bench;

  rb::print_header(
      "Extension — throughput vs set-point under error detection / replay",
      "logic depth L = 64 stages, replay penalty 8 cycles, 8% HoDV at "
      "Te = 40c, t_clk = 1c.");

  const core::ThroughputConfig tp_cfg{64.0, 8.0};
  const auto inputs = core::SimulationInputs::harmonic(0.08 * 64.0,
                                                       40.0 * 64.0);

  TextTable table{{"set-point c", "errors", "mean period", "efficiency"}};
  std::vector<double> xs;
  std::vector<double> eff;
  for (double c = 60.0; c <= 80.0; c += 1.0) {
    auto sim = make_loop(c);
    const auto trace = sim.run(inputs, 8000);
    const auto report = core::evaluate_throughput(trace, tp_cfg, 1000);
    table.add_row_values({c, static_cast<double>(report.errors),
                          trace.mean_delivered_period(1000),
                          report.efficiency});
    xs.push_back(c);
    eff.push_back(report.efficiency);
  }
  table.print(std::cout);
  rb::save_table(table, "ext_throughput_vs_setpoint");

  PlotOptions opts;
  opts.title = "pipeline efficiency vs set-point c";
  opts.x_label = "set-point c (stages)";
  opts.y_label = "efficiency (1.0 = ideal)";
  AsciiPlot plot{opts};
  plot.add_series("efficiency", xs, eff, '*');
  std::printf("\n%s\n", plot.render().c_str());

  const auto best = std::max_element(eff.begin(), eff.end());
  const double best_c = xs[static_cast<std::size_t>(best - eff.begin())];
  std::printf("static optimum: c = %.0f, efficiency %.4f\n", best_c, *best);

  // The curve must be a knee: too low -> replay storm; too high -> period
  // tax.  Both sides of the optimum must be measurably worse.
  rb::shape_check(eff.front() < *best - 0.02,
                  "set-point below the knee loses throughput to replays");
  rb::shape_check(eff.back() < *best - 0.02,
                  "set-point above the knee loses throughput to period");

  // Governor finds the knee online.
  control::GovernorConfig gov_cfg;
  gov_cfg.initial_setpoint = 78.0;
  gov_cfg.logic_depth = 64.0;
  gov_cfg.window = 200;
  gov_cfg.headroom = 2.0;
  control::SetpointGovernor governor{gov_cfg};
  auto sim = make_loop(gov_cfg.initial_setpoint);
  const auto trace = core::run_with_governor(sim, governor, inputs, 24000);
  const auto governed = core::evaluate_throughput(trace, tp_cfg, 4000);
  std::printf("\ngoverned run: final c = %.1f, efficiency %.4f "
              "(static best %.4f)\n",
              governor.setpoint(), governed.efficiency, *best);
  rb::shape_check(governed.efficiency > 0.9 * *best,
                  "the runtime governor reaches >90% of the static optimum "
                  "with no design-time tuning");
  return rb::shape_exit_code();
}
