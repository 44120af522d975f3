// Extension bench — the introduction's margin economics in energy terms:
// "SM can be added to the supply voltage instead of to the clock period.
// In this case the yield is increased but at the price of more power
// consumption."  Compares, under the alpha-power-law model, the three ways
// to absorb a delay uncertainty u: period margin, voltage margin, and the
// paper's adaptive clock (which pays only the *measured mean* slowdown —
// taken from the Monte-Carlo yield analysis).
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "roclk/analysis/yield.hpp"
#include "roclk/common/ascii_plot.hpp"
#include "roclk/common/table.hpp"
#include "roclk/power/voltage_model.hpp"

int main() {
  using namespace roclk;
  namespace rb = roclk::bench;

  rb::print_header(
      "Extension — energy/throughput cost of period vs voltage vs adaptive "
      "margins",
      "Alpha-power-law delay (alpha = 1.3, Vth = 0.3 Vn), 25% leakage "
      "share.\nAdaptive operating point from the yield Monte-Carlo "
      "(mean measured slowdown).");

  const power::ProcessParams process;

  // Ground the adaptive strategy in measurement: the yield module's mean
  // per-chip extra period under D2D+WID+RND process variation.
  analysis::YieldConfig ycfg;
  ycfg.chips = 500;
  const auto cmp = analysis::compare_margins(0.99, ycfg);
  const double u = cmp.fixed_margin_needed / ycfg.setpoint_c;
  const double adaptive_extra =
      cmp.adaptive_mean_extra_period / ycfg.setpoint_c;

  std::printf("measured: fixed clock needs u = %.1f%% margin for 99%% yield; "
              "adaptive pays %.1f%% on average\n\n",
              100.0 * u, 100.0 * adaptive_extra);

  TextTable table{{"strategy", "V/Vn", "T/Tn", "throughput", "energy/op"}};
  const auto period_op = power::period_margin_strategy(u, process);
  const auto voltage_op = power::voltage_margin_strategy(u, process);
  const auto adaptive_op =
      power::adaptive_clock_strategy(adaptive_extra, process);

  auto add = [&table](const power::OperatingPoint& op) {
    table.add_row({op.name, format_double(op.vdd_factor, 3),
                   format_double(op.period_factor, 3),
                   format_double(op.throughput_factor, 3),
                   format_double(op.energy_factor, 3)});
  };
  add(period_op);
  if (voltage_op.is_ok()) {
    add(voltage_op.value());
  } else {
    std::printf("voltage margin infeasible: %s\n",
                voltage_op.status().to_string().c_str());
  }
  add(adaptive_op);
  table.print(std::cout);
  rb::save_table(table, "ext_energy_strategies");

  // Sweep the uncertainty: energy cost of the voltage-margin strategy vs u.
  TextTable sweep{{"uncertainty u", "V/Vn needed", "energy/op (voltage)",
                   "energy/op (period)", "throughput (period)"}};
  std::vector<double> xs;
  std::vector<double> e_volt;
  std::vector<double> e_period;
  for (double uu = 0.0; uu <= 0.40001; uu += 0.04) {
    const auto vop = power::voltage_margin_strategy(uu, process);
    if (!vop.is_ok()) break;
    const auto pop = power::period_margin_strategy(uu, process);
    sweep.add_row_values({uu, vop.value().vdd_factor,
                          vop.value().energy_factor, pop.energy_factor,
                          pop.throughput_factor});
    xs.push_back(uu);
    e_volt.push_back(vop.value().energy_factor);
    e_period.push_back(pop.energy_factor);
  }
  std::printf("\n");
  sweep.print(std::cout);
  rb::save_table(sweep, "ext_energy_vs_uncertainty");

  PlotOptions opts;
  opts.title = "energy per op vs absorbed delay uncertainty";
  opts.x_label = "uncertainty u";
  opts.y_label = "energy/op (x nominal)";
  AsciiPlot plot{opts};
  plot.add_series("voltage margin", xs, e_volt, 'v');
  plot.add_series("period margin", xs, e_period, 'p');
  std::printf("\n%s\n", plot.render().c_str());

  // The intro's claim, checked at a feasible operating point (the measured
  // u may exceed what any legal overdrive can buy back — itself a finding).
  const auto volt_20 = power::voltage_margin_strategy(0.2, process);
  rb::shape_check(volt_20.is_ok() &&
                      volt_20.value().energy_factor >
                          power::period_margin_strategy(0.2, process)
                              .energy_factor,
                  "voltage margin buys throughput at a super-linear energy "
                  "price (the paper's intro claim, at u = 20%)");
  if (!voltage_op.is_ok()) {
    std::printf("note: at the measured u = %.1f%% the voltage-margin "
                "strategy is infeasible within Vmax = %.2f Vn — margins "
                "this large can only be paid in period or adaptivity.\n",
                100.0 * u, process.vdd_max);
  }
  rb::shape_check(adaptive_op.throughput_factor >
                          period_op.throughput_factor &&
                      adaptive_op.energy_factor <=
                          period_op.energy_factor + 1e-9,
                  "the adaptive clock dominates the period-margin strategy "
                  "in both axes");
  return rb::shape_exit_code();
}
