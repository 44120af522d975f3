// Ablation A8 — does the paper's high-level model survive the
// microarchitecture?  The behavioural loop (additive linearised model,
// 1-stage length steps, ideal TDC) against the gate-level loop (physical
// stage chains, odd-length tap mux, thermometer readout with
// metastability, period jitter), through the same variation scenarios.
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/common/table.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/gate_level_simulator.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/variation/scenario.hpp"

namespace {

using namespace roclk;

analysis::RunMetrics behavioural_run(
    const std::shared_ptr<const variation::VariationSource>& source,
    std::size_t cycles, std::size_t skip) {
  auto sim = core::make_iir_system(64.0, 64.0);
  const auto inputs =
      core::SimulationInputs::from_variation_source(source, 64.0);
  const auto trace = sim.run(inputs, cycles);
  return analysis::evaluate_run(trace, 64.0, 76.8, skip);
}

analysis::RunMetrics gate_level_run(const variation::VariationSource& source,
                                    std::size_t cycles, std::size_t skip,
                                    double metastability, double jitter) {
  core::GateLevelConfig cfg;
  // A 2x2 readout-chain array roughly matching the behavioural model's
  // worst-of sensor grid.
  cfg.tdcs.clear();
  for (double x : {0.3, 0.7}) {
    for (double y : {0.3, 0.7}) {
      sensor::DetailedTdcConfig tdc;
      tdc.chain.start = {x - 0.01, y - 0.01};
      tdc.chain.end = {x + 0.01, y + 0.01};
      tdc.metastability_p = metastability;
      cfg.tdcs.push_back(tdc);
    }
  }
  cfg.jitter.white_sigma = jitter;
  core::GateLevelSimulator sim{
      cfg, std::make_unique<control::IirControlHardware>()};
  const auto trace = sim.run(source, cycles);
  return analysis::evaluate_run(trace, 64.0, 76.8, skip);
}

}  // namespace

int main() {
  namespace rb = roclk::bench;

  rb::print_header(
      "Ablation A8 — behavioural (Fig. 4) vs gate-level loop",
      "IIR RO, c = 64, t_clk = 1c.  Gate level: odd-length tap mux, four "
      "thermometer TDC\nchains (worst-of), optional metastability and "
      "period jitter.");

  struct Scenario {
    const char* label;
    std::shared_ptr<const variation::VariationSource> source;
  };
  const Scenario scenarios[] = {
      {"harmonic HoDV 20% @ 50c",
       variation::make_harmonic_hodv(0.2, 50.0 * 64.0)},
      {"harmonic HoDV 20% @ 25c",
       variation::make_harmonic_hodv(0.2, 25.0 * 64.0)},
      {"slow hotspot 15%",
       std::make_shared<variation::TemperatureHotspot>(
           0.15, variation::DiePoint{0.7, 0.7}, 0.25, 64.0 * 200.0,
           64.0 * 2000.0)},
  };

  TextTable table{{"scenario", "model", "SM (stages)", "mean period",
                   "rel. period", "tau ripple"}};
  double worst_gap = 0.0;
  for (const auto& s : scenarios) {
    const std::size_t cycles = 8000;
    const std::size_t skip = 3000;
    const auto behav = behavioural_run(s.source, cycles, skip);
    const auto gate = gate_level_run(*s.source, cycles, skip, 0.0, 0.0);
    const auto harsh = gate_level_run(*s.source, cycles, skip,
                                      /*metastability=*/0.1,
                                      /*jitter=*/0.5);
    auto add = [&](const char* model, const analysis::RunMetrics& m) {
      table.add_row({s.label, model, format_double(m.safety_margin, 2),
                     format_double(m.mean_period, 2),
                     format_double(m.relative_adaptive_period, 3),
                     format_double(m.tau_ripple, 2)});
    };
    add("behavioural", behav);
    add("gate-level (clean)", gate);
    add("gate-level (meta+jitter)", harsh);
    worst_gap = std::max(worst_gap,
                         std::fabs(behav.relative_adaptive_period -
                                   gate.relative_adaptive_period));
  }
  table.print(std::cout);
  rb::save_table(table, "ablation_gate_level");

  std::printf("\nworst clean-model relative-period gap: %.4f\n", worst_gap);
  rb::shape_check(worst_gap < 0.06,
                  "the linearised Fig. 4 model predicts the gate-level "
                  "loop's operating point within a few percent");
  return rb::shape_exit_code();
}
