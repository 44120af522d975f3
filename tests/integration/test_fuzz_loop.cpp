// Failure-injection / fuzz tests: random configurations and hostile inputs
// must never produce NaNs, unbounded state or inconsistent trace flags.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "roclk/common/stream_key.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/control/teatime.hpp"
#include "roclk/core/loop_simulator.hpp"

namespace roclk::core {
namespace {

void check_trace_invariants(const SimulationTrace& trace,
                            const LoopConfig& cfg) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_TRUE(std::isfinite(trace.tau()[i])) << i;
    ASSERT_TRUE(std::isfinite(trace.delta()[i])) << i;
    ASSERT_TRUE(std::isfinite(trace.lro()[i])) << i;
    ASSERT_TRUE(std::isfinite(trace.generated_period()[i])) << i;
    ASSERT_TRUE(std::isfinite(trace.delivered_period()[i])) << i;
    ASSERT_GT(trace.generated_period()[i], 0.0) << i;
    ASSERT_GT(trace.delivered_period()[i], 0.0) << i;
    // delta and violation must agree with tau.
    ASSERT_DOUBLE_EQ(trace.delta()[i], cfg.setpoint_c - trace.tau()[i]);
    ASSERT_EQ(trace.tau()[i] < cfg.setpoint_c,
              static_cast<bool>(trace.delta()[i] > 0.0))
        << i;
    // lro respects the saturation range.
    ASSERT_GE(trace.lro()[i], static_cast<double>(cfg.min_length)) << i;
    ASSERT_LE(trace.lro()[i], static_cast<double>(cfg.max_length)) << i;
  }
}

class FuzzLoop : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzLoop, RandomConfigAndInputsKeepInvariants) {
  CounterRng rng{StreamKey{GetParam()}};

  LoopConfig cfg;
  cfg.setpoint_c = rng.uniform(16.0, 128.0);
  cfg.cdn_delay_stages = rng.uniform(0.0, 4.0) * cfg.setpoint_c;
  cfg.min_length = static_cast<std::int64_t>(rng.uniform(2.0, 16.0));
  cfg.max_length =
      cfg.min_length + static_cast<std::int64_t>(rng.uniform(64.0, 512.0));
  cfg.cdn_quantization = rng.uniform() < 0.5
                             ? cdn::DelayQuantization::kRound
                             : cdn::DelayQuantization::kLinearInterp;
  cfg.mode = GeneratorMode::kControlledRo;

  std::unique_ptr<control::ControlBlock> controller;
  if (rng.uniform() < 0.5) {
    controller = std::make_unique<control::IirControlHardware>();
  } else {
    controller = std::make_unique<control::TeaTimeControl>();
  }
  LoopSimulator sim{cfg, std::move(controller)};

  // Hostile inputs: large steps, fast tones, random walks, occasional
  // extreme mismatch — amplitudes up to 40% of c.
  const double amp = 0.4 * cfg.setpoint_c;
  double walk = 0.0;
  SimulationTrace trace;
  trace.reserve(2000);
  for (int n = 0; n < 2000; ++n) {
    walk = 0.98 * walk + rng.normal(0.0, 0.05 * cfg.setpoint_c);
    const double e =
        amp * std::sin(0.3 * n) * (rng.uniform() < 0.1 ? -1.0 : 1.0) + walk;
    const double mu = rng.uniform() < 0.02
                          ? rng.uniform(-0.3, 0.3) * cfg.setpoint_c
                          : 0.0;
    // Clamp so the additive model keeps generated periods positive even in
    // the worst draw (the simulator itself also floors at 1 stage).
    const double e_safe =
        std::clamp(e, -0.6 * cfg.setpoint_c, 0.6 * cfg.setpoint_c);
    trace.push(sim.step(e_safe, e_safe, mu));
  }
  check_trace_invariants(trace, cfg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLoop,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

TEST(FuzzLoop, SaturationRecovery) {
  // Drive the loop hard into both saturation rails, then release: it must
  // come back to equilibrium (anti-windup behaviour of the real datapath).
  LoopConfig cfg;
  cfg.setpoint_c = 64.0;
  cfg.cdn_delay_stages = 64.0;
  cfg.min_length = 48;
  cfg.max_length = 80;
  LoopSimulator sim{cfg, std::make_unique<control::IirControlHardware>()};

  SimulationTrace trace;
  for (int n = 0; n < 3000; ++n) {
    double mu = 0.0;
    if (n >= 200 && n < 800) mu = -40.0;   // force lro to the top rail
    if (n >= 800 && n < 1400) mu = +40.0;  // slam to the bottom rail
    trace.push(sim.step(0.0, 0.0, mu));
  }
  // After release the loop must return to tau = c.
  for (std::size_t i = 2800; i < trace.size(); ++i) {
    EXPECT_NEAR(trace.tau()[i], 64.0, 1.5) << i;
  }
}

TEST(FuzzLoop, ExtremeButFinitePerturbationsClampPeriod) {
  LoopConfig cfg;
  cfg.setpoint_c = 64.0;
  cfg.cdn_delay_stages = 64.0;
  LoopSimulator sim{cfg, std::make_unique<control::TeaTimeControl>()};
  // A perturbation deeper than the whole period: the generated period must
  // clamp at the simulator's 1-stage floor instead of going non-positive.
  const auto record = sim.step(-200.0, -200.0, 0.0);
  (void)record;
  const auto next = sim.step(-200.0, -200.0, 0.0);
  EXPECT_GT(next.t_gen, 0.0);
}

}  // namespace
}  // namespace roclk::core
