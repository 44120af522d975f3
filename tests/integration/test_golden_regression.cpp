// Golden-trace regression: the exact integer sequences the paper systems
// produce for a pinned scenario.  The loop is fully deterministic (integer
// controller, seeded everything), so any change to the control law, the
// loop wiring or the quantisers shows up here sample-for-sample.
//
// Scenario: c = 64, t_clk = 1c, harmonic HoDV amplitude 0.2c / period 25c,
// static mu = +3 stages; samples 100..119 of the run.
#include <gtest/gtest.h>

#include <vector>

#include "roclk/analysis/experiments.hpp"
#include "roclk/core/loop_simulator.hpp"

namespace roclk::core {
namespace {

constexpr std::size_t kFirst = 100;
constexpr std::size_t kCount = 20;

SimulationTrace run_golden(LoopSimulator sim) {
  const auto inputs = SimulationInputs::harmonic(12.8, 1600.0, 3.0);
  return sim.run(inputs, kFirst + kCount);
}

template <class T>
std::vector<T> window(const std::vector<T>& xs) {
  return {xs.begin() + kFirst, xs.begin() + kFirst + kCount};
}

TEST(GoldenRegression, IirTauSequence) {
  const auto trace = run_golden(make_iir_system(64.0, 64.0));
  const std::vector<double> expected{55, 56, 57, 58, 59, 61, 64, 66, 68, 69,
                                     71, 71, 71, 72, 70, 70, 69, 66, 65, 63};
  EXPECT_EQ(window(trace.tau()), expected);
}

TEST(GoldenRegression, IirLroSequence) {
  const auto trace = run_golden(make_iir_system(64.0, 64.0));
  const std::vector<double> expected{61, 62, 63, 64, 65, 65, 65, 65, 64, 63,
                                     63, 61, 61, 60, 58, 58, 57, 56, 57, 56};
  EXPECT_EQ(window(trace.lro()), expected);
}

TEST(GoldenRegression, IirDeliveredPeriods) {
  const auto trace = run_golden(make_iir_system(64.0, 64.0));
  const std::vector<double> expected{
      52.8336, 56.8168, 61.0000, 65.1832, 69.1664, 72.7622, 75.8074,
      77.1735, 77.7747, 77.5733, 75.5818, 72.8626, 70.5237, 65.7120,
      62.6043, 58.3957, 53.2880, 50.4763, 47.1374, 44.4182};
  const auto got = window(trace.delivered_period());
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 5e-4) << i;
  }
}

TEST(GoldenRegression, TeaTimeTauSequence) {
  const auto trace = run_golden(analysis::make_system(
      analysis::SystemKind::kTeaTime, 64.0, 64.0, 0.0,
      cdn::DelayQuantization::kRound));
  const std::vector<double> expected{56, 57, 58, 59, 60, 62, 65, 67, 70, 70,
                                     71, 71, 71, 71, 70, 69, 68, 66, 64, 62};
  EXPECT_EQ(window(trace.tau()), expected);
}

TEST(GoldenRegression, RunIsExactlyRepeatable) {
  const auto a = run_golden(make_iir_system(64.0, 64.0));
  const auto b = run_golden(make_iir_system(64.0, 64.0));
  EXPECT_EQ(a.tau(), b.tau());
  EXPECT_EQ(a.lro(), b.lro());
  EXPECT_EQ(a.delivered_period(), b.delivered_period());
}

}  // namespace
}  // namespace roclk::core
