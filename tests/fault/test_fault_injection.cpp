// Fault replay through the two simulation engines.
//
// The contracts under test:
//  * a faulted run is a pure function of (seed, schedule) — replaying the
//    same schedule reproduces the trace bit for bit;
//  * attaching an empty schedule (or none) leaves the no-fault trajectory
//    bit-for-bit untouched;
//  * lane w of a faulted ensemble run equals a scalar LoopSimulator
//    running the same schedule, sample for sample;
//  * a lane whose faulted dynamics go non-physical is isolated — frozen at
//    its last good record — and never poisons MetricsReducer with its
//    non-physical values; isolated during the transient, it reports NaN
//    figures rather than a perfect-looking lane.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "roclk/analysis/ensemble_metrics.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/ensemble_simulator.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/fault/fault.hpp"

namespace roclk::core {
namespace {

constexpr double kSetpoint = 64.0;
constexpr std::size_t kCycles = 600;

LoopConfig loop_config() {
  LoopConfig config;
  config.setpoint_c = kSetpoint;
  config.cdn_delay_stages = 2.0 * kSetpoint;
  return config;
}

std::unique_ptr<control::ControlBlock> make_iir() {
  return std::make_unique<control::IirControlHardware>(
      control::paper_iir_config());
}

fault::FaultSchedule mixed_schedule() {
  fault::FaultSchedule schedule;
  schedule.add({fault::FaultKind::kTdcGlitch, 60, 3, 17.0})
      .add({fault::FaultKind::kTdcStuckAt, 120, 8, 200.0})
      .add({fault::FaultKind::kTdcDroppedSample, 180, 2, 0.0})
      .add({fault::FaultKind::kRoStageFailure, 240, 40, 5.0})
      .add({fault::FaultKind::kCdnDeliveryDrop, 320, 1, 0.0})
      .add({fault::FaultKind::kVoltageDroop, 380, 20, 6.0});
  return schedule;
}

void expect_traces_equal(const SimulationTrace& a, const SimulationTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a.tau()[k], b.tau()[k]) << "cycle " << k;
    ASSERT_EQ(a.delta()[k], b.delta()[k]) << "cycle " << k;
    ASSERT_EQ(a.lro()[k], b.lro()[k]) << "cycle " << k;
    ASSERT_EQ(a.generated_period()[k], b.generated_period()[k])
        << "cycle " << k;
    ASSERT_EQ(a.delivered_period()[k], b.delivered_period()[k])
        << "cycle " << k;
    ASSERT_EQ(a.violation_flags()[k], b.violation_flags()[k]) << "cycle " << k;
  }
}

TEST(FaultInjection, FaultedRunIsReproducibleFromSeedAndSchedule) {
  fault::RandomFaultSpec spec;
  spec.horizon_cycles = kCycles;
  spec.event_count = 6;
  const auto schedule = fault::FaultSchedule::random(99, spec);
  const auto inputs = SimulationInputs::harmonic(8.0, 900.0, -2.0);

  LoopSimulator a{loop_config(), make_iir()};
  a.attach_faults(schedule);
  const SimulationTrace first = a.run(inputs, kCycles);

  LoopSimulator b{loop_config(), make_iir()};
  b.attach_faults(fault::FaultSchedule::random(99, spec));
  const SimulationTrace second = b.run(inputs, kCycles);
  expect_traces_equal(first, second);

  // reset() rewinds the injector with the loop: the replay repeats.
  a.reset();
  expect_traces_equal(first, a.run(inputs, kCycles));
}

TEST(FaultInjection, EmptyScheduleLeavesTrajectoryUntouched) {
  const auto inputs = SimulationInputs::harmonic(8.0, 900.0, 1.5);

  LoopSimulator plain{loop_config(), make_iir()};
  const SimulationTrace reference = plain.run(inputs, kCycles);

  LoopSimulator armed{loop_config(), make_iir()};
  armed.attach_faults(fault::FaultSchedule{});
  EXPECT_TRUE(armed.has_faults());
  expect_traces_equal(reference, armed.run(inputs, kCycles));
}

TEST(FaultInjection, FaultsChangeTheTrajectory) {
  const auto inputs = SimulationInputs::harmonic(8.0, 900.0, 0.0);
  LoopSimulator plain{loop_config(), make_iir()};
  const SimulationTrace reference = plain.run(inputs, kCycles);

  LoopSimulator faulted{loop_config(), make_iir()};
  faulted.attach_faults(mixed_schedule());
  const SimulationTrace trace = faulted.run(inputs, kCycles);
  std::size_t differing = 0;
  for (std::size_t k = 0; k < kCycles; ++k) {
    if (trace.tau()[k] != reference.tau()[k]) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjection, StuckAtPinsTheReadingWithinTheChain) {
  LoopConfig config = loop_config();
  config.tdc_max_reading = 128;
  fault::FaultSchedule schedule;
  // The stuck code exceeds the chain: the mux still saturates at
  // max_reading, like real hardware.
  schedule.add({fault::FaultKind::kTdcStuckAt, 10, 5, 1000.0});
  LoopSimulator sim{config, make_iir()};
  sim.attach_faults(schedule);
  const SimulationTrace trace = sim.run(SimulationInputs::none(), 20);
  for (std::size_t k = 10; k < 15; ++k) {
    EXPECT_DOUBLE_EQ(trace.tau()[k], 128.0) << "cycle " << k;
  }
  EXPECT_DOUBLE_EQ(trace.tau()[9], kSetpoint);  // pre-fault equilibrium
}

TEST(FaultInjection, ViolationFlagJudgesTheTrueReadingNotTheFaultedOne) {
  // A stuck-at-high reading hides nothing: the die still met timing, so no
  // violation is recorded; conversely the fault does not fabricate one.
  fault::FaultSchedule schedule;
  schedule.add({fault::FaultKind::kTdcStuckAt, 5, 3, 1.0});
  LoopSimulator sim{loop_config(), make_iir()};
  sim.attach_faults(schedule);
  const SimulationTrace trace = sim.run(SimulationInputs::none(), 30);
  // Quiet environment at equilibrium: the true tau never dips below c on
  // the faulted cycles themselves (the controller reacts a cycle later).
  EXPECT_EQ(trace.violation_flags()[5], 0);
  EXPECT_EQ(trace.violation_flags()[6], 0);
  EXPECT_LT(trace.tau()[5], kSetpoint);  // but the corrupted reading is low
}

TEST(FaultInjection, NonPhysicalFaultIsolatesTheLoopInsteadOfPoisoning) {
  // Two overlapping droops of 1e308 fold to +inf at the injector; the
  // delivered period goes non-finite one cycle later and the loop must
  // freeze at its last good record, not stream NaN.
  fault::FaultSchedule schedule;
  schedule.add({fault::FaultKind::kVoltageDroop, 20, 4, 1e308})
      .add({fault::FaultKind::kVoltageDroop, 20, 4, 1e308});
  LoopSimulator sim{loop_config(), make_iir()};
  sim.attach_faults(schedule);
  const SimulationTrace trace = sim.run(SimulationInputs::none(), 60);
  EXPECT_TRUE(sim.isolated());
  ASSERT_EQ(trace.size(), 60u);
  for (std::size_t k = 0; k < trace.size(); ++k) {
    EXPECT_TRUE(std::isfinite(trace.tau()[k])) << "cycle " << k;
    EXPECT_TRUE(std::isfinite(trace.delivered_period()[k])) << "cycle " << k;
  }
  // Frozen: the tail repeats the last good record.
  const std::size_t last = trace.size() - 1;
  EXPECT_EQ(trace.tau()[last], trace.tau()[last - 1]);
  EXPECT_EQ(trace.delivered_period()[last], trace.delivered_period()[last - 1]);

  sim.reset();
  EXPECT_FALSE(sim.isolated());
}

// ------------------------------------------------------------- ensemble

TEST(FaultInjection, EnsembleLanesMatchScalarUnderPerLaneSchedules) {
  constexpr std::size_t kLanes = 21;  // crosses a chunk boundary
  const LoopConfig config = loop_config();
  const control::IirControlHardware prototype{control::paper_iir_config()};
  EnsembleSimulator ensemble =
      EnsembleSimulator::uniform(config, &prototype, kLanes);

  std::vector<fault::FaultSchedule> schedules(kLanes);
  fault::RandomFaultSpec spec;
  spec.horizon_cycles = kCycles;
  spec.event_count = 4;
  for (std::size_t w = 0; w < kLanes; ++w) {
    if (w % 3 == 0) continue;  // every third lane stays fault-free
    schedules[w] = fault::FaultSchedule::random(1000 + w, spec);
  }
  ensemble.attach_faults(schedules);
  EXPECT_TRUE(ensemble.has_faults());

  std::vector<SimulationInputs> inputs;
  for (std::size_t w = 0; w < kLanes; ++w) {
    inputs.push_back(
        SimulationInputs::harmonic(6.0, 1100.0, -4.0 + 0.9 * w, 0.21 * w));
  }
  const auto block = sample_ensemble(inputs, kCycles, kSetpoint);

  TraceReducer reducer{kLanes, kCycles};
  ensemble.run(block, reducer);
  for (std::size_t w = 0; w < kLanes; ++w) {
    LoopSimulator scalar{config, make_iir()};
    scalar.attach_faults(schedules[w]);
    const SimulationTrace reference =
        scalar.run_batch(inputs[w].sample(kCycles, kSetpoint));
    SCOPED_TRACE("lane " + std::to_string(w));
    expect_traces_equal(reference, reducer.trace(w));
  }
}

TEST(FaultInjection, IsolatedLaneIsReportedAndSkippedByMetrics) {
  constexpr std::size_t kLanes = 5;
  const LoopConfig config = loop_config();
  const control::IirControlHardware prototype{control::paper_iir_config()};
  EnsembleSimulator ensemble =
      EnsembleSimulator::uniform(config, &prototype, kLanes);

  std::vector<fault::FaultSchedule> schedules(kLanes);
  schedules[2]
      .add({fault::FaultKind::kVoltageDroop, 30, 4, 1e308})
      .add({fault::FaultKind::kVoltageDroop, 30, 4, 1e308});
  ensemble.attach_faults(schedules);

  std::vector<SimulationInputs> inputs(kLanes,
                                       SimulationInputs::harmonic(4.0, 800.0));
  const auto block = sample_ensemble(inputs, 200, kSetpoint);
  analysis::MetricsReducer reducer{
      std::vector<double>(kLanes, kSetpoint), /*skip=*/50};
  ensemble.run(block, reducer);

  EXPECT_TRUE(ensemble.isolated(2));
  EXPECT_EQ(ensemble.isolated_count(), 1u);
  for (std::size_t w = 0; w < kLanes; ++w) {
    if (w == 2) continue;
    EXPECT_FALSE(ensemble.isolated(w)) << "lane " << w;
    const analysis::RunMetrics metrics = reducer.metrics(w);
    EXPECT_TRUE(std::isfinite(metrics.mean_period)) << "lane " << w;
    EXPECT_TRUE(std::isfinite(metrics.safety_margin)) << "lane " << w;
  }
  // The isolated lane saw every cycle but contributed no samples after its
  // isolation point.  It isolated during the 50-cycle transient, so it
  // folded no cycle at all: its figures are NaN and its violations 0,
  // never the zero margin and zero period of a lane that looks perfect.
  EXPECT_EQ(reducer.cycles_seen(2), 200u);
  const analysis::RunMetrics isolated = reducer.metrics(2);
  EXPECT_TRUE(std::isnan(isolated.safety_margin));
  EXPECT_TRUE(std::isnan(isolated.mean_period));
  EXPECT_TRUE(std::isnan(isolated.relative_adaptive_period));
  EXPECT_TRUE(std::isnan(isolated.tau_ripple));
  EXPECT_EQ(isolated.violations, 0u);

  // reset() clears the isolation flags with the rest of the lane state.
  ensemble.reset();
  EXPECT_EQ(ensemble.isolated_count(), 0u);
}

}  // namespace
}  // namespace roclk::core
