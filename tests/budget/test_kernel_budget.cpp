// Allocation budgets of the ensemble kernel and a served corner: exact
// counts that do not depend on the host, held as ceilings (ROADMAP item
// 8).  The binary links tests/support/counting_new.cpp, which counts every
// global operator new; each test runs the call once to warm it (first-use
// statics, the backend choice) and then counts a second call.  The
// backend is whatever ROCLK_SIMD resolves to, so CI runs the label once
// natively and once with the scalar pack forced.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../support/counting_new.hpp"
#include "roclk/analysis/ensemble_metrics.hpp"
#include "roclk/analysis/experiments.hpp"
#include "roclk/common/thread_pool.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/ensemble_simulator.hpp"
#include "roclk/core/inputs.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/fault/fault.hpp"
#include "roclk/signal/waveform.hpp"

namespace roclk {
namespace {

using testing::allocations_of;

constexpr double kSetpoint = 64.0;
constexpr std::size_t kCycles = 1100;
// Crosses run_homogeneous's 8192-cycle segment boundary.
constexpr std::size_t kHomogeneousCycles = 8192 + 100;
constexpr std::size_t kSkip = 100;
constexpr std::size_t kWidths[] = {1, 9, 1024};

/// `faulted` arms random events, over twice `cycles`, on every 8th lane.
core::EnsembleSimulator iir_ensemble(std::size_t width, bool faulted,
                                     std::size_t cycles) {
  core::LoopConfig config;
  config.setpoint_c = kSetpoint;
  config.cdn_delay_stages = kSetpoint;
  config.mode = core::GeneratorMode::kControlledRo;
  const control::IirControlHardware prototype{control::paper_iir_config()};
  auto ensemble = core::EnsembleSimulator::uniform(config, &prototype, width);
  if (faulted) {
    // Random events on every 8th lane, as in a fault campaign.
    fault::RandomFaultSpec spec;
    spec.horizon_cycles = 2 * cycles;
    std::vector<fault::FaultSchedule> schedules(width);
    for (std::size_t w = 0; w < width; w += 8) {
      schedules[w] = fault::FaultSchedule::random(500 + w, spec);
    }
    ensemble.attach_faults(schedules);
  }
  return ensemble;
}

std::vector<double> lane_mus(std::size_t width) {
  std::vector<double> mus(width);
  for (std::size_t w = 0; w < width; ++w) {
    mus[w] = -6.0 + 1.7 * static_cast<double>(w % 8);
  }
  return mus;
}

/// Takes slices and keeps nothing: the slice path's own cost.
class DiscardReducer final : public core::StreamingReducer {
 public:
  void accumulate(const core::LaneSlice& /*slice*/) override {}
};

TEST(KernelBudget, SequentialRunAllocatesNothing) {
  for (const bool faulted : {false, true}) {
    for (const std::size_t width : kWidths) {
      SCOPED_TRACE(std::string{faulted ? "faulted" : "clean"} + " width " +
                   std::to_string(width));
      auto ensemble = iir_ensemble(width, faulted, kCycles);
      std::vector<core::SimulationInputs> inputs;
      for (std::size_t w = 0; w < width; ++w) {
        inputs.push_back(core::SimulationInputs::harmonic(
            10.0, 1600.0, -6.0 + 1.7 * static_cast<double>(w % 8)));
      }
      const auto block = core::sample_ensemble(inputs, kCycles, kSetpoint);
      analysis::MetricsReducer metrics{std::vector<double>(width, 76.8), kSkip};
      DiscardReducer discard;
      ensemble.run(block, metrics, nullptr);
      EXPECT_EQ(allocations_of([&] { ensemble.run(block, metrics, nullptr); }),
                0u);
      EXPECT_EQ(allocations_of([&] { ensemble.run(block, discard, nullptr); }),
                0u);
    }
  }
}

TEST(KernelBudget, SequentialRunHomogeneousAllocatesNothing) {
  const signal::SineWaveform wave{12.8, 3200.0};
  for (const bool faulted : {false, true}) {
    for (const std::size_t width : kWidths) {
      SCOPED_TRACE(std::string{faulted ? "faulted" : "clean"} + " width " +
                   std::to_string(width));
      auto ensemble = iir_ensemble(width, faulted, kHomogeneousCycles);
      const std::vector<double> mus = lane_mus(width);
      analysis::MetricsReducer metrics{std::vector<double>(width, 76.8), kSkip};
      DiscardReducer discard;
      const auto run = [&](core::StreamingReducer& reducer) {
        ensemble.run_homogeneous(wave, mus, kSetpoint, kHomogeneousCycles,
                                 reducer, nullptr);
      };
      run(metrics);
      EXPECT_EQ(allocations_of([&] { run(metrics); }), 0u);
      EXPECT_EQ(allocations_of([&] { run(discard); }), 0u);
    }
  }
}

/// A sine that counts its evaluations.  The count is a plain integer:
/// run_homogeneous samples the waveform on its calling thread only, so a
/// call from a pool worker would be a data race that ThreadSanitizer
/// reports.
class CountingWave final : public signal::Waveform {
 public:
  [[nodiscard]] double at(double t) const override {
    ++calls_;
    return sine_.at(t);
  }
  [[nodiscard]] std::unique_ptr<signal::Waveform> clone() const override {
    return std::make_unique<CountingWave>(*this);
  }
  [[nodiscard]] std::size_t calls() const { return calls_; }

 private:
  signal::SineWaveform sine_{12.8, 3200.0};
  mutable std::size_t calls_{0};
};

TEST(KernelBudget, HomogeneousRunSamplesEachCycleOnce) {
  // Every lane sees the one waveform, so a run evaluates it once per
  // cycle at any width: the 1,024-lane run's 32 chunks share each
  // segment's samples, on a pool as sequentially.
  constexpr std::size_t kRunCycles = 2 * 8192 + 17;
  ThreadPool pool{3};
  for (const std::size_t width : {std::size_t{1024}, std::size_t{1}}) {
    SCOPED_TRACE("width " + std::to_string(width));
    auto ensemble = iir_ensemble(width, false, kRunCycles);
    analysis::MetricsReducer metrics{std::vector<double>(width, 76.8), kSkip};
    const CountingWave wave;
    ensemble.run_homogeneous(wave, lane_mus(width), kSetpoint, kRunCycles,
                             metrics, &pool);
    EXPECT_EQ(wave.calls(), kRunCycles);
  }
}

TEST(KernelBudget, LoopRunAllocatesItsBlockAndTrace) {
  // LoopSimulator::run samples its inputs into a one-lane block (three
  // arrays) and runs run_batch over it into a trace reserved up front
  // (six arrays), so a run of any length n > 0 allocates exactly nine
  // times: nothing per cycle, and nothing more for a signal evaluation.
  constexpr std::uint64_t kAllocations = 3 + 6;
  auto loop = core::make_iir_system(kSetpoint, kSetpoint);
  const auto inputs = core::SimulationInputs::harmonic(12.8, 3200.0, 1.5);
  (void)loop.run(inputs, kCycles);
  for (const std::size_t n :
       {std::size_t{1}, kCycles, kHomogeneousCycles}) {
    SCOPED_TRACE("n " + std::to_string(n));
    loop.reset();
    EXPECT_EQ(allocations_of([&] { (void)loop.run(inputs, n); }),
              kAllocations);
  }
}

TEST(KernelBudget, SimulateSystemCornerStaysUnderItsCeiling) {
  // One served corner: a one-lane ensemble built, run through
  // run_homogeneous into a MetricsReducer, and evaluated.  The ceiling is
  // the count on the reference toolchain (GCC 12, libstdc++): building the
  // ensemble and its reducer (the paper controller is built once per
  // process, by the warm-up call); the kernel call adds nothing.
  // Lower it with any change that lowers the count.
  constexpr std::uint64_t kCeiling = 8;
  const auto corner = [] {
    (void)analysis::simulate_system(analysis::SystemKind::kIir, kSetpoint,
                                    kSetpoint, 12.8, 3200.0, 1.5, 76.8, 5000,
                                    1000);
  };
  corner();
  const std::uint64_t count = allocations_of(corner);
  EXPECT_LE(count, kCeiling);
  RecordProperty("allocations", std::to_string(count));
}

TEST(KernelBudget, SixteenPointIirGridStaysUnderItsCeiling) {
  // One grid of a served t_clk or mu sweep: a 16-lane IIR ensemble built,
  // with one controller for all lanes, and run as simulate_system_ensemble
  // runs it.  The ceiling is the count on the reference toolchain (GCC 12,
  // libstdc++); lower it with any change that lowers the count.
  constexpr std::uint64_t kCeiling = 9;
  std::vector<double> tclks(16);
  for (std::size_t i = 0; i < tclks.size(); ++i) {
    tclks[i] = kSetpoint * (0.5 + 0.125 * static_cast<double>(i));
  }
  const double mu = 1.5;
  const auto grid = [&] {
    (void)analysis::simulate_system_ensemble(
        analysis::SystemKind::kIir, kSetpoint, tclks, 12.8, 3200.0, {&mu, 1},
        76.8, 5000, 1000, 0.0, cdn::DelayQuantization::kLinearInterp,
        nullptr);
  };
  grid();
  const std::uint64_t count = allocations_of(grid);
  EXPECT_LE(count, kCeiling);
  RecordProperty("allocations", std::to_string(count));
}

TEST(KernelBudget, ThousandLaneSetUpStaysUnderItsCeiling) {
  // A Monte-Carlo campaign's set-up and pass state: a 1,024-lane IIR
  // ensemble built from one prototype, and the MetricsReducer a pass
  // folds into.  The ceiling is the count on the reference toolchain
  // (GCC 12, libstdc++); lower it with any change that lowers the count.
  constexpr std::uint64_t kCeiling = 37;
  constexpr std::size_t kLanes = 1024;
  core::LoopConfig config;
  config.setpoint_c = kSetpoint;
  config.cdn_delay_stages = kSetpoint;
  config.mode = core::GeneratorMode::kControlledRo;
  const control::IirControlHardware prototype{control::paper_iir_config()};
  const auto set_up = [&] {
    auto ensemble = core::EnsembleSimulator::uniform(config, &prototype, kLanes);
    analysis::MetricsReducer metrics{std::vector<double>(kLanes, 76.8), kSkip};
  };
  set_up();
  const std::uint64_t count = allocations_of(set_up);
  EXPECT_LE(count, kCeiling);
  RecordProperty("allocations", std::to_string(count));
}

}  // namespace
}  // namespace roclk
