// The identity-critical property: the time-domain loop simulator, run
// without quantisation, must reproduce the closed-loop transfer functions
// of paper eqs. 4-5 sample for sample.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "roclk/control/iir_control.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/signal/filter.hpp"
#include "roclk/signal/transfer_function.hpp"

namespace roclk::core {
namespace {

constexpr double kC = 64.0;

LoopSimulator linear_iir_loop(double tclk_stages) {
  LoopConfig cfg;
  cfg.setpoint_c = kC;
  cfg.cdn_delay_stages = tclk_stages;
  cfg.quantize_lro = false;
  cfg.tdc_quantization = sensor::Quantization::kNone;
  cfg.min_length = 1;
  cfg.max_length = 1 << 20;  // effectively unconstrained: stay linear
  return LoopSimulator{cfg,
                       std::make_unique<control::IirControlReference>()};
}

/// Runs the simulator under perturbation sequences e[], mu[] (one value per
/// cycle) and returns the delta trace.
std::vector<double> simulate_delta(LoopSimulator& sim,
                                   const std::vector<double>& e,
                                   const std::vector<double>& mu) {
  SimulationTrace trace;
  sim.reset();
  for (std::size_t n = 0; n < e.size(); ++n) {
    trace.push(sim.step(e[n], e[n], mu[n]));
  }
  return trace.delta();
}

/// Predicts delta via eq. 5: delta = D/(D + N z^{-M-2}) applied to
///   p[n] = e[n-1] - e[n-M-2] - mu[n-1]
/// The homogeneous part is eq. 5's combined input (paper_combined_input
/// with c = mu = 0); mu enters at the TDC with one cycle of latency in our
/// simulator instead of through the CDN, which for the paper's static-mu
/// experiments is equivalent.
std::vector<double> predict_delta(std::size_t m, const std::vector<double>& e,
                                  const std::vector<double>& mu) {
  const auto [num, den] =
      control::iir_polynomials(control::paper_iir_config());
  const auto loop = signal::make_paper_closed_loop(num, den, m);
  signal::LinearFilter h_delta{loop.to_error};
  const std::vector<double> none(e.size(), 0.0);
  const std::vector<double> p_e =
      signal::paper_combined_input(none, e, none, m);
  std::vector<double> out(e.size());
  for (std::size_t n = 0; n < e.size(); ++n) {
    const double mu_tdc = n >= 1 && n - 1 < mu.size() ? mu[n - 1] : 0.0;
    out[n] = h_delta.step(p_e[n] - mu_tdc);
  }
  return out;
}

class LinearEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LinearEquivalence, StepInHomogeneousVariation) {
  const std::size_t m = GetParam();
  const double tclk = static_cast<double>(m) * kC;  // M = tclk/c exactly
  auto sim = linear_iir_loop(tclk);

  const std::size_t n = 400;
  std::vector<double> e(n, 0.0);
  std::vector<double> mu(n, 0.0);
  // Amplitude small enough that T_gen never drives the CDN's M[n] away
  // from tclk/c (the linear model assumes a constant M).
  for (std::size_t k = 50; k < n; ++k) e[k] = 1.5;

  const auto sim_delta = simulate_delta(sim, e, mu);
  const auto tf_delta = predict_delta(m, e, mu);
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_NEAR(sim_delta[k], tf_delta[k], 1e-6) << "M=" << m << " n=" << k;
  }
}

TEST_P(LinearEquivalence, ImpulseInMismatch) {
  const std::size_t m = GetParam();
  auto sim = linear_iir_loop(static_cast<double>(m) * kC);

  const std::size_t n = 300;
  std::vector<double> e(n, 0.0);
  std::vector<double> mu(n, 0.0);
  mu[60] = 2.0;

  const auto sim_delta = simulate_delta(sim, e, mu);
  const auto tf_delta = predict_delta(m, e, mu);
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_NEAR(sim_delta[k], tf_delta[k], 1e-6) << "M=" << m << " n=" << k;
  }
}

TEST_P(LinearEquivalence, SmallSinusoid) {
  const std::size_t m = GetParam();
  auto sim = linear_iir_loop(static_cast<double>(m) * kC);

  const std::size_t n = 600;
  std::vector<double> e(n, 0.0);
  std::vector<double> mu(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    // Tiny amplitude: even near-resonance loop gain cannot swing T_gen far
    // enough for the CDN's M[n] to re-quantise away from tclk/c.
    e[k] = 0.1 * std::sin(2.0 * 3.14159265358979 * static_cast<double>(k) /
                          80.0);
  }
  const auto sim_delta = simulate_delta(sim, e, mu);
  const auto tf_delta = predict_delta(m, e, mu);
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_NEAR(sim_delta[k], tf_delta[k], 1e-6) << "M=" << m << " n=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(CdnDelays, LinearEquivalence,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u));

TEST(LinearEquivalence, FinalValueTheoremHoldsInSimulation) {
  // eq. 6/7: under a step perturbation, delta -> 0 and l_RO changes.
  auto sim = linear_iir_loop(kC);
  const std::size_t n = 2000;
  std::vector<double> e(n, 0.0);
  std::vector<double> mu(n, 3.0);  // constant mismatch from t = 0
  sim.reset();
  SimulationTrace trace;
  for (std::size_t k = 0; k < n; ++k) {
    trace.push(sim.step(e[k], e[k], mu[k]));
  }
  EXPECT_NEAR(trace.delta().back(), 0.0, 1e-9);
  EXPECT_NEAR(trace.lro().back(), kC - 3.0, 1e-6);
}

}  // namespace
}  // namespace roclk::core
