#include "roclk/control/setpoint_governor.hpp"

#include <gtest/gtest.h>

namespace roclk::control {
namespace {

GovernorConfig small_window() {
  GovernorConfig cfg;
  cfg.initial_setpoint = 70.0;
  cfg.logic_depth = 64.0;
  cfg.window = 4;
  cfg.step_up = 2.0;
  cfg.step_down = 1.0;
  cfg.headroom = 2.0;
  return cfg;
}

TEST(Governor, ValidateCatchesBadConfigs) {
  GovernorConfig bad = small_window();
  bad.logic_depth = 0.0;
  EXPECT_FALSE(SetpointGovernor::validate(bad).is_ok());
  bad = small_window();
  bad.window = 0;
  EXPECT_FALSE(SetpointGovernor::validate(bad).is_ok());
  bad = small_window();
  bad.min_setpoint = 100.0;
  bad.max_setpoint = 50.0;
  EXPECT_FALSE(SetpointGovernor::validate(bad).is_ok());
  bad = small_window();
  bad.initial_setpoint = 1000.0;
  EXPECT_FALSE(SetpointGovernor::validate(bad).is_ok());
  bad = small_window();
  bad.step_up = 0.0;
  EXPECT_FALSE(SetpointGovernor::validate(bad).is_ok());
  bad = small_window();
  bad.headroom = -1.0;
  EXPECT_FALSE(SetpointGovernor::validate(bad).is_ok());
  EXPECT_THROW(SetpointGovernor{bad}, std::logic_error);
}

TEST(Governor, HoldsWithinWindow) {
  SetpointGovernor gov{small_window()};
  // Three observations (window is 4): no decision yet.
  EXPECT_DOUBLE_EQ(gov.observe(70.0), 70.0);
  EXPECT_DOUBLE_EQ(gov.observe(70.0), 70.0);
  EXPECT_DOUBLE_EQ(gov.observe(70.0), 70.0);
  EXPECT_EQ(gov.epochs(), 0u);
}

TEST(Governor, BacksOffOnError) {
  SetpointGovernor gov{small_window()};
  gov.observe(70.0);
  gov.observe(63.0);  // below L = 64: a real error
  gov.observe(70.0);
  const double next = gov.observe(70.0);  // window closes
  EXPECT_DOUBLE_EQ(next, 72.0);           // +step_up
  EXPECT_EQ(gov.epochs(), 1u);
  EXPECT_EQ(gov.total_errors(), 1u);
}

TEST(Governor, CreepsDownWithHeadroom) {
  SetpointGovernor gov{small_window()};
  // Worst tau 70: slack above L is 6 >= headroom(2) + step_down(1).
  for (int i = 0; i < 4; ++i) gov.observe(70.0);
  EXPECT_DOUBLE_EQ(gov.setpoint(), 69.0);
  for (int i = 0; i < 4; ++i) gov.observe(69.0);
  EXPECT_DOUBLE_EQ(gov.setpoint(), 68.0);
}

TEST(Governor, HoldsWhenSlackInsufficient) {
  SetpointGovernor gov{small_window()};
  // Worst tau 66: slack 2 < headroom + step_down = 3 -> hold.
  for (int i = 0; i < 4; ++i) gov.observe(66.0);
  EXPECT_DOUBLE_EQ(gov.setpoint(), 70.0);
}

TEST(Governor, WorstReadingInWindowDecides) {
  SetpointGovernor gov{small_window()};
  gov.observe(75.0);
  gov.observe(66.0);  // the worst one
  gov.observe(75.0);
  gov.observe(75.0);
  EXPECT_DOUBLE_EQ(gov.setpoint(), 70.0);  // held because of the dip
}

TEST(Governor, ClampsToRange) {
  GovernorConfig cfg = small_window();
  cfg.max_setpoint = 71.0;
  SetpointGovernor gov{cfg};
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int i = 0; i < 4; ++i) gov.observe(10.0);  // constant errors
  }
  EXPECT_DOUBLE_EQ(gov.setpoint(), 71.0);

  GovernorConfig floor_cfg = small_window();
  floor_cfg.min_setpoint = 69.0;
  SetpointGovernor floor_gov{floor_cfg};
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < 4; ++i) floor_gov.observe(200.0);  // huge slack
  }
  EXPECT_DOUBLE_EQ(floor_gov.setpoint(), 69.0);
}

TEST(Governor, ConvergesToKneeUnderStaticConditions) {
  // Simulated plant: the loop pins tau at c (perfect tracking), the
  // pipeline needs 64.  Governor should descend to just above L + headroom.
  GovernorConfig cfg = small_window();
  cfg.initial_setpoint = 80.0;
  cfg.window = 8;
  SetpointGovernor gov{cfg};
  double c = cfg.initial_setpoint;
  for (int cycle = 0; cycle < 4000; ++cycle) {
    c = gov.observe(c);  // tau == current set-point
  }
  // Fixed point: slack = c - 64 < headroom + step_down = 3 stops descent.
  EXPECT_LT(gov.setpoint(), 68.0);
  EXPECT_GE(gov.setpoint(), 64.0);
  EXPECT_EQ(gov.total_errors(), 0u);
}

}  // namespace
}  // namespace roclk::control
