// Ablation A3 — closed-loop stability vs CDN delay M (explains the Fig. 8
// upper-plot degradation).  For the paper controller we tabulate the
// spectral radius of D(z) + N(z) z^{-M-2} as M grows, the Jury verdict,
// and a time-domain confirmation at the boundary.
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "roclk/control/constraints.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/signal/jury.hpp"

int main() {
  using namespace roclk;
  namespace rb = roclk::bench;

  rb::print_header(
      "Ablation A3 — closed-loop stability vs CDN delay M",
      "Characteristic polynomial D(z) + N(z) z^{-M-2} for the paper IIR.\n"
      "The delay margin bounds the clock-domain size an IIR RO can serve.");

  const auto [n, d] = control::iir_polynomials(control::paper_iir_config());

  TextTable table{{"M", "spectral radius", "roots verdict", "Jury verdict"}};
  for (std::size_t m = 0; m <= 16; ++m) {
    const auto s = control::closed_loop_stability(n, d, m);
    const auto jury =
        signal::jury_test(control::closed_loop_characteristic(n, d, m));
    table.add_row({std::to_string(m),
                   format_double(s.is_ok() ? s.value().spectral_radius : -1.0,
                                 6),
                   s.is_ok() && s.value().stable ? "stable" : "unstable",
                   jury.is_ok() && jury.value().stable ? "stable"
                                                       : "unstable"});
  }
  table.print(std::cout);
  rb::save_table(table, "ablation_stability");

  const auto max_m = control::max_stable_cdn_delay(n, d, 256);
  if (max_m) {
    std::printf("\nmax stable CDN delay: M = %zu (t_clk ~ %zu c)\n", *max_m,
                *max_m);
  }

  // Time-domain confirmation: just inside the margin a small disturbance
  // rings down; just outside it rings up.
  auto probe = [&](std::size_t m) {
    core::LoopConfig cfg;
    cfg.setpoint_c = 64.0;
    cfg.cdn_delay_stages = 64.0 * static_cast<double>(m);
    cfg.quantize_lro = false;
    cfg.tdc_quantization = sensor::Quantization::kNone;
    cfg.min_length = 1;
    cfg.max_length = 1 << 20;
    core::LoopSimulator sim{
        cfg, std::make_unique<control::IirControlReference>()};
    core::SimulationInputs inputs;
    inputs.mu = [](double t) { return t < 64.0 * 70.0 ? 0.0 : 0.25; };
    const auto trace = sim.run(inputs, 3000);
    const auto err = trace.timing_error(64.0);
    double early = 0.0;
    double late = 0.0;
    for (std::size_t k = 100; k < 1000; ++k) {
      early = std::max(early, std::fabs(err[k]));
    }
    for (std::size_t k = 2000; k < err.size(); ++k) {
      late = std::max(late, std::fabs(err[k]));
    }
    return std::pair{early, late};
  };

  if (max_m && *max_m >= 1 && *max_m < 64) {
    const auto inside = probe(*max_m - 1);
    const auto outside = probe(*max_m + 2);
    std::printf(
        "time-domain probe: M=%zu ring |err| early %.3f -> late %.3f;  "
        "M=%zu early %.3f -> late %.3f\n",
        *max_m - 1, inside.first, inside.second, *max_m + 2, outside.first,
        outside.second);
    rb::shape_check(inside.second < 1.0,
                    "inside the delay margin the loop settles");
    rb::shape_check(outside.second > outside.first,
                    "outside the delay margin the loop rings up");
  }
  return rb::shape_exit_code();
}
