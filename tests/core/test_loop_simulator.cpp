#include "roclk/core/loop_simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "roclk/analysis/experiments.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/control/teatime.hpp"
#include "roclk/variation/sources.hpp"

namespace roclk::core {
namespace {

/// One of the paper's systems at c = t_clk = 64 stages, built the way the
/// experiments build it (integer CDN delay, as in LoopConfig's default).
LoopSimulator paper_system(analysis::SystemKind kind,
                           double open_loop_margin = 0.0) {
  return analysis::make_system(kind, 64.0, 64.0, open_loop_margin,
                               cdn::DelayQuantization::kRound);
}

LoopConfig linear_config(double tclk = 64.0) {
  LoopConfig cfg;
  cfg.setpoint_c = 64.0;
  cfg.cdn_delay_stages = tclk;
  cfg.quantize_lro = false;
  cfg.tdc_quantization = sensor::Quantization::kNone;
  return cfg;
}

TEST(LoopSimulator, ValidateRejectsBadConfigs) {
  LoopConfig cfg;
  cfg.setpoint_c = 0.0;
  EXPECT_FALSE(LoopSimulator::validate(cfg, true).is_ok());

  LoopConfig no_ctrl;
  EXPECT_FALSE(LoopSimulator::validate(no_ctrl, false).is_ok());

  LoopConfig neg;
  neg.cdn_delay_stages = -1.0;
  EXPECT_FALSE(LoopSimulator::validate(neg, true).is_ok());
  // The CDN look-back distance must stay in [0, history - 2].
  for (const double delay : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    LoopConfig unbounded;
    unbounded.cdn_delay_stages = delay;
    EXPECT_FALSE(LoopSimulator::validate(unbounded, true).is_ok()) << delay;
  }

  LoopConfig range;
  range.min_length = 100;
  range.max_length = 10;
  EXPECT_FALSE(LoopSimulator::validate(range, true).is_ok());

  LoopConfig bad_period;
  bad_period.open_loop_period = -1.0;
  EXPECT_FALSE(LoopSimulator::validate(bad_period, true).is_ok());

  LoopConfig bad_chain;
  bad_chain.tdc_max_reading = 0;
  EXPECT_FALSE(LoopSimulator::validate(bad_chain, true).is_ok());
}

TEST(LoopSimulator, TdcChainShorterThanSetpointFailsLoudly) {
  // A chain shorter than c saturates below the set-point and could never
  // report "period OK": the loop would lock at the rail forever.  The
  // mis-sizing must fail at construction, not misbehave at runtime.
  LoopConfig cfg;
  cfg.setpoint_c = 64.0;
  cfg.tdc_max_reading = 63;
  EXPECT_FALSE(LoopSimulator::validate(cfg, true).is_ok());
  EXPECT_THROW((LoopSimulator{cfg,
                              std::make_unique<control::IirControlHardware>()}),
               std::logic_error);

  cfg.tdc_max_reading = 64;  // exactly c is the smallest legal chain
  EXPECT_TRUE(LoopSimulator::validate(cfg, true).is_ok());

  // set_setpoint re-checks the invariant against the existing chain.
  LoopSimulator sim{cfg, std::make_unique<control::IirControlHardware>()};
  EXPECT_THROW(sim.set_setpoint(65.0), std::logic_error);
  sim.set_setpoint(32.0);  // shrinking is always safe
}

TEST(LoopSimulator, ConstructionRejectsOutOfRangeLro) {
  // l_RO is a physical stage count: the saturation range must satisfy
  // 1 <= min <= max, and a config outside it fails at construction, not
  // mid-run.
  LoopConfig zero_min = linear_config();
  zero_min.min_length = 0;
  EXPECT_FALSE(LoopSimulator::validate(zero_min, true).is_ok());
  EXPECT_THROW((LoopSimulator{zero_min,
                              std::make_unique<control::IirControlHardware>()}),
               std::logic_error);

  LoopConfig inverted = linear_config();
  inverted.min_length = 64;
  inverted.max_length = 8;
  EXPECT_THROW((LoopSimulator{inverted,
                              std::make_unique<control::IirControlHardware>()}),
               std::logic_error);
}

// Equilibrium: with zero perturbation every system must hold tau = c
// exactly, forever, with zero violations.
class EquilibriumAllSystems
    : public ::testing::TestWithParam<std::tuple<GeneratorMode, double>> {};

TEST_P(EquilibriumAllSystems, QuietEnvironmentIsFixedPoint) {
  const auto [mode, tclk] = GetParam();
  LoopConfig cfg;
  cfg.setpoint_c = 64.0;
  cfg.cdn_delay_stages = tclk;
  cfg.mode = mode;
  std::unique_ptr<control::ControlBlock> ctrl;
  if (mode == GeneratorMode::kControlledRo) {
    ctrl = std::make_unique<control::IirControlHardware>();
  }
  LoopSimulator sim{cfg, std::move(ctrl)};
  const auto trace = sim.run(SimulationInputs::none(), 200);
  EXPECT_EQ(trace.violation_count(), 0u);
  for (double tau : trace.tau()) {
    ASSERT_DOUBLE_EQ(tau, 64.0);
  }
  for (double t : trace.delivered_period()) {
    ASSERT_DOUBLE_EQ(t, 64.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndDelays, EquilibriumAllSystems,
    ::testing::Combine(::testing::Values(GeneratorMode::kControlledRo,
                                         GeneratorMode::kFreeRunningRo,
                                         GeneratorMode::kFixedClock),
                       ::testing::Values(0.0, 64.0, 160.0, 640.0)));

TEST(LoopSimulator, HomogeneousStepIsFullyRejectedByIirLoop) {
  // A permanent die-wide slowdown: the loop must return tau to c (zero
  // steady-state error, eq. 8) with the period stretched to c + e.
  auto sim = make_iir_system(64.0, 64.0);
  SimulationInputs inputs;
  inputs.e_ro = [](double t) { return t >= 640.0 ? 6.0 : 0.0; };
  inputs.e_tdc = inputs.e_ro;
  const auto trace = sim.run(inputs, 600);
  const double tau_end = trace.tau().back();
  EXPECT_NEAR(tau_end, 64.0, 1.0);
  EXPECT_NEAR(trace.delivered_period().back(), 70.0, 1.0);
}

TEST(LoopSimulator, MismatchStepShiftsPeriodOppositeWays) {
  // Positive mu (TDC reads optimistically high): loop shortens the period
  // to T ~ c - mu; negative mu lengthens it.  tau returns to c either way.
  for (double mu : {8.0, -8.0}) {
    auto sim = make_iir_system(64.0, 64.0);
    SimulationInputs inputs;
    inputs.mu = [mu](double t) { return t >= 640.0 ? mu : 0.0; };
    const auto trace = sim.run(inputs, 800);
    EXPECT_NEAR(trace.tau().back(), 64.0, 1.0) << "mu " << mu;
    EXPECT_NEAR(trace.delivered_period().back(), 64.0 - mu, 1.5)
        << "mu " << mu;
  }
}

TEST(LoopSimulator, FreeRoCancelsHomogeneousStepWithoutControl) {
  // The free-running RO is itself slowed by e, so after the CDN flushes,
  // its delivered period carries the correction automatically.
  auto sim = paper_system(analysis::SystemKind::kFreeRo);
  SimulationInputs inputs;
  inputs.e_ro = [](double t) { return t >= 640.0 ? 6.0 : 0.0; };
  inputs.e_tdc = inputs.e_ro;
  const auto trace = sim.run(inputs, 200);
  EXPECT_NEAR(trace.tau().back(), 64.0, 1e-9);
  EXPECT_NEAR(trace.delivered_period().back(), 70.0, 1e-9);
}

TEST(LoopSimulator, FixedClockCarriesPermanentError) {
  auto sim = paper_system(analysis::SystemKind::kFixedClock);
  SimulationInputs inputs;
  inputs.e_ro = [](double t) { return t >= 640.0 ? 6.0 : 0.0; };
  inputs.e_tdc = inputs.e_ro;
  const auto trace = sim.run(inputs, 200);
  // tau = c - e forever: a 6-stage violation the fixed clock cannot fix.
  EXPECT_NEAR(trace.tau().back(), 58.0, 1e-9);
  EXPECT_GT(trace.violation_count(), 50u);
}

TEST(LoopSimulator, FreeRoWithDesignMarginAvoidsViolations) {
  auto no_margin = paper_system(analysis::SystemKind::kFreeRo, 0.0);
  auto with_margin = paper_system(analysis::SystemKind::kFreeRo, 8.0);
  const auto inputs = SimulationInputs::harmonic(6.0, 1600.0);
  EXPECT_GT(no_margin.run(inputs, 2000).violation_count(200), 0u);
  EXPECT_EQ(with_margin.run(inputs, 2000).violation_count(200), 0u);
}

TEST(LoopSimulator, RoLengthSaturationBoundsLro) {
  LoopConfig cfg;
  cfg.setpoint_c = 64.0;
  cfg.cdn_delay_stages = 64.0;
  cfg.min_length = 60;
  cfg.max_length = 68;
  LoopSimulator sim{cfg, std::make_unique<control::IirControlHardware>()};
  // Huge mismatch drives the controller far beyond the range.
  SimulationInputs inputs;
  inputs.mu = [](double) { return -30.0; };
  const auto trace = sim.run(inputs, 500);
  for (double l : trace.lro()) {
    ASSERT_GE(l, 60.0);
    ASSERT_LE(l, 68.0);
  }
}

TEST(LoopSimulator, ResetRestoresEquilibriumAfterDisturbance) {
  auto sim = paper_system(analysis::SystemKind::kTeaTime);
  const auto inputs = SimulationInputs::harmonic(12.8, 1600.0);
  (void)sim.run(inputs, 500);
  sim.reset();
  const auto quiet = sim.run(SimulationInputs::none(), 100);
  EXPECT_EQ(quiet.violation_count(), 0u);
  EXPECT_DOUBLE_EQ(quiet.tau().back(), 64.0);
}

TEST(LoopSimulator, TeaTimeLimitCycleBoundedByLoopDelay) {
  // Under a static mismatch TEAtime settles into a limit cycle whose
  // amplitude is set by the loop transport delay (M + 2 cycles of blind
  // stepping before the sign information returns).
  auto sim = paper_system(analysis::SystemKind::kTeaTime);  // M = 1 -> 3-cycle transport
  SimulationInputs inputs;
  inputs.mu = [](double) { return 5.0; };
  const auto trace = sim.run(inputs, 2000);
  EXPECT_LE(trace.tau_ripple(1500), 6.0);
  EXPECT_NEAR(trace.mean_delivered_period(1500), 59.0, 2.0);
}

TEST(LoopSimulator, FasterPerturbationNeedsMoreMargin) {
  // The heart of section II-A: the same amplitude at higher frequency is
  // harder to adapt to.
  const auto inputs_fast = SimulationInputs::harmonic(12.8, 25.0 * 64.0);
  const auto inputs_slow = SimulationInputs::harmonic(12.8, 100.0 * 64.0);
  auto sim_fast = make_iir_system(64.0, 64.0);
  auto sim_slow = make_iir_system(64.0, 64.0);
  const double sm_fast =
      sim_fast.run(inputs_fast, 6000).required_safety_margin(64.0, 2000);
  const double sm_slow =
      sim_slow.run(inputs_slow, 6000).required_safety_margin(64.0, 2000);
  EXPECT_GT(sm_fast, sm_slow);
}

// ------------------------------------------------------- run_batch parity

namespace {

/// Asserts run_batch on `a` reproduces a step() loop on `b` over the same
/// one-lane block, sampled from `inputs` at `dt` (default: the set-point,
/// as run() samples), bit for bit.  run() is run_batch over that block,
/// so this is the gate that the batched loop is step()'s arithmetic.
void expect_batch_matches_steps(LoopSimulator& a, LoopSimulator& b,
                              const SimulationInputs& inputs,
                              std::size_t cycles,
                              std::optional<double> dt = std::nullopt) {
  const InputBlock block =
      inputs.sample(cycles, dt.value_or(a.config().setpoint_c));
  const auto batched = a.run_batch(block);
  SimulationTrace reference;
  for (std::size_t k = 0; k < cycles; ++k) {
    reference.push(b.step(block.e_ro[k], block.e_tdc[k], block.mu[k]));
  }
  ASSERT_EQ(reference.size(), batched.size());
  for (std::size_t k = 0; k < cycles; ++k) {
    ASSERT_EQ(reference.tau()[k], batched.tau()[k]) << "cycle " << k;
    ASSERT_EQ(reference.delta()[k], batched.delta()[k]) << "cycle " << k;
    ASSERT_EQ(reference.lro()[k], batched.lro()[k]) << "cycle " << k;
    ASSERT_EQ(reference.generated_period()[k],
              batched.generated_period()[k])
        << "cycle " << k;
    ASSERT_EQ(reference.delivered_period()[k],
              batched.delivered_period()[k])
        << "cycle " << k;
  }
  EXPECT_EQ(reference.violation_count(), batched.violation_count());
}

}  // namespace

TEST(LoopSimulatorBatch, MatchesRunBitForBitOnHarmonicInputs) {
  const auto inputs = SimulationInputs::harmonic(12.8, 1600.0, 3.0);
  auto a_iir = make_iir_system(64.0, 64.0);
  auto b_iir = make_iir_system(64.0, 64.0);
  expect_batch_matches_steps(a_iir, b_iir, inputs, 3000);

  auto a_tea = paper_system(analysis::SystemKind::kTeaTime);
  auto b_tea = paper_system(analysis::SystemKind::kTeaTime);
  expect_batch_matches_steps(a_tea, b_tea, inputs, 3000);

  auto a_free = paper_system(analysis::SystemKind::kFreeRo, 12.8);
  auto b_free = paper_system(analysis::SystemKind::kFreeRo, 12.8);
  expect_batch_matches_steps(a_free, b_free, inputs, 3000);

  auto a_fix = paper_system(analysis::SystemKind::kFixedClock, 12.8);
  auto b_fix = paper_system(analysis::SystemKind::kFixedClock, 12.8);
  expect_batch_matches_steps(a_fix, b_fix, inputs, 3000);
}

TEST(LoopSimulatorBatch, MatchesRunBitForBitOnFallbackControllers) {
  // Controllers outside the devirtualized IIR fast path exercise
  // run_batch's virtual-dispatch fallback branch.
  const auto inputs = SimulationInputs::harmonic(9.6, 1100.0, -2.0);
  LoopConfig cfg;
  cfg.setpoint_c = 64.0;
  cfg.cdn_delay_stages = 64.0;
  cfg.mode = GeneratorMode::kControlledRo;

  {
    LoopSimulator a{cfg, std::make_unique<control::ProportionalControl>(0.5)};
    LoopSimulator b{cfg, std::make_unique<control::ProportionalControl>(0.5)};
    expect_batch_matches_steps(a, b, inputs, 2000);
  }
  {
    LoopSimulator a{cfg, std::make_unique<control::PiControl>(0.5, 0.125)};
    LoopSimulator b{cfg, std::make_unique<control::PiControl>(0.5, 0.125)};
    expect_batch_matches_steps(a, b, inputs, 2000);
  }
  {
    control::TeaTimeConfig tea;
    tea.zero_policy = control::SignZeroPolicy::kDither;
    tea.delayed_sign = true;
    LoopSimulator a{cfg, std::make_unique<control::TeaTimeControl>(tea)};
    LoopSimulator b{cfg, std::make_unique<control::TeaTimeControl>(tea)};
    expect_batch_matches_steps(a, b, inputs, 2000);
  }
}

TEST(LoopSimulatorBatch, MatchesRunBitForBitOnOpenLoopMargins) {
  // The open-loop generators take the controller-free branch of the batch
  // loop; sweep the design margin including the no-margin edge.
  const auto inputs = SimulationInputs::harmonic(12.8, 900.0, 1.5);
  for (double margin : {0.0, 6.4, 19.2}) {
    auto a_free = paper_system(analysis::SystemKind::kFreeRo, margin);
    auto b_free = paper_system(analysis::SystemKind::kFreeRo, margin);
    expect_batch_matches_steps(a_free, b_free, inputs, 1500);

    auto a_fix = paper_system(analysis::SystemKind::kFixedClock, margin);
    auto b_fix = paper_system(analysis::SystemKind::kFixedClock, margin);
    expect_batch_matches_steps(a_fix, b_fix, inputs, 1500);
  }
}

TEST(LoopSimulatorBatch, MatchesRunBitForBitOnVariationSourceInputs) {
  const auto source = std::make_shared<const variation::VrmRipple>(
      0.08, 1600.0, 0.3);
  const auto inputs =
      SimulationInputs::from_variation_source(source, 64.0, {0.25, 0.75});
  auto a = make_iir_system(64.0, 96.0);
  auto b = make_iir_system(64.0, 96.0);
  expect_batch_matches_steps(a, b, inputs, 2000);
}

TEST(LoopSimulatorBatch, MatchesRunWithFractionalSamplePeriod) {
  // The block is sampled at a fractional period unrelated to c = 100.
  LoopConfig cfg = linear_config(100.0);
  cfg.cdn_quantization = cdn::DelayQuantization::kLinearInterp;
  LoopSimulator a{cfg, std::make_unique<control::IirControlReference>()};
  LoopSimulator b{cfg, std::make_unique<control::IirControlReference>()};
  expect_batch_matches_steps(a, b, SimulationInputs::harmonic(5.0, 731.0),
                           1500, 31.7);
}

TEST(LoopSimulatorBatch, RejectsRaggedBlock) {
  auto sim = make_iir_system(64.0, 64.0);
  InputBlock block;
  block.width = 1;
  block.cycles = 10;
  block.e_ro.assign(10, 0.0);
  block.e_tdc.assign(9, 0.0);
  block.mu.assign(10, 0.0);
  EXPECT_THROW((void)sim.run_batch(block), std::logic_error);
}

}  // namespace
}  // namespace roclk::core
