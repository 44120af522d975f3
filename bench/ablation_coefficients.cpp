// Ablation A2 — IIR coefficient sets: "a balance between filter adaptation
// velocity and low output ripple" (paper section IV).  We sweep valid
// power-of-two coefficient sets (each satisfying eq. 10) and report
// adaptation speed (settling after a mismatch step) against steady-state
// ripple and the stability-limited CDN delay.
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/control/constraints.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/loop_simulator.hpp"

namespace {

struct CoeffSet {
  const char* label;
  std::vector<double> taps;
  double k_star;
};

/// Cycles until |tau - c| stays below 1 stage after a mu step of 8 stages.
std::size_t settling_cycles(const roclk::control::IirConfig& cfg) {
  using namespace roclk;
  core::LoopConfig loop_cfg;
  loop_cfg.setpoint_c = 64.0;
  loop_cfg.cdn_delay_stages = 64.0;
  core::LoopSimulator sim{loop_cfg,
                          std::make_unique<control::IirControlHardware>(cfg)};
  core::SimulationInputs inputs;
  inputs.mu = [](double t) { return t >= 64.0 * 100.0 ? 8.0 : 0.0; };
  const auto trace = sim.run(inputs, 3000);
  const auto err = trace.timing_error(64.0);
  std::size_t settled_at = err.size();
  for (std::size_t n = err.size(); n-- > 100;) {
    if (std::fabs(err[n]) > 1.0) {
      settled_at = n + 1;
      break;
    }
  }
  return settled_at > 100 ? settled_at - 100 : 0;
}

}  // namespace

int main() {
  using namespace roclk;
  namespace rb = roclk::bench;

  rb::print_header(
      "Ablation A2 — IIR coefficient sets (adaptation velocity vs ripple)",
      "Settling: cycles to re-converge after an 8-stage mismatch step at "
      "t_clk = 1c.\nRipple: steady-state tau peak-to-peak under HoDV "
      "(0.2c, Te = 50c).\nMax M: largest CDN sample delay with a stable "
      "closed loop (Jury/root analysis).");

  const std::vector<CoeffSet> sets{
      {"single tap {1}", {1.0}, 1.0},
      {"two taps {1,1}", {1.0, 1.0}, 0.5},
      {"aggressive {2,1,1}", {2.0, 1.0, 1.0}, 0.25},
      {"paper {2,1,.5,.25,.125,.125}",
       {2.0, 1.0, 0.5, 0.25, 0.125, 0.125},
       0.25},
      {"sluggish {4,2,1,.5,.25,.125,.125}",
       {4.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.125},
       0.125},
  };

  TextTable table{{"coefficients", "settling (cycles)", "tau ripple",
                   "SM @ Te=50c", "max stable M"}};

  std::size_t paper_settling = 0;
  double paper_ripple = 0.0;
  double single_ripple = 0.0;

  for (const auto& set : sets) {
    control::IirConfig cfg;
    cfg.taps = set.taps;
    cfg.k_star = set.k_star;
    cfg.k_exp = 8.0;
    const auto valid = control::validate_iir_config(cfg);
    if (!valid.is_ok()) {
      std::printf("skipping %s: %s\n", set.label, valid.to_string().c_str());
      continue;
    }

    const std::size_t settling = settling_cycles(cfg);

    core::LoopConfig loop_cfg;
    loop_cfg.setpoint_c = 64.0;
    loop_cfg.cdn_delay_stages = 64.0;
    core::LoopSimulator sim{
        loop_cfg, std::make_unique<control::IirControlHardware>(cfg)};
    const auto trace = sim.run(
        core::SimulationInputs::harmonic(12.8, 50.0 * 64.0), 6000);
    const auto metrics = analysis::evaluate_run(trace, 64.0, 76.8, 1500);

    const auto [n, d] = control::iir_polynomials(cfg);
    const auto max_m = control::max_stable_cdn_delay(n, d, 256);

    table.add_row({set.label, std::to_string(settling),
                   format_double(metrics.tau_ripple, 2),
                   format_double(metrics.safety_margin, 2),
                   max_m ? std::to_string(*max_m) : "none"});

    if (std::string{set.label}.find("paper") != std::string::npos) {
      paper_settling = settling;
      paper_ripple = metrics.tau_ripple;
    }
    if (std::string{set.label}.find("single") != std::string::npos) {
      single_ripple = metrics.tau_ripple;
    }
  }
  table.print(std::cout);
  rb::save_table(table, "ablation_coefficients");

  rb::shape_check(paper_settling < 600,
                  "paper set settles within a few hundred cycles");
  rb::shape_check(paper_ripple <= single_ripple + 1.0,
                  "paper set's ripple no worse than the fastest set");
  return rb::shape_exit_code();
}
