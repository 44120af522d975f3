#include "roclk/fault/fault.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "roclk/fault/injector.hpp"

namespace roclk::fault {
namespace {

TEST(FaultEvent, ActiveWindowIsHalfOpen) {
  const FaultEvent event{FaultKind::kTdcGlitch, 10, 3, 4.0};
  EXPECT_FALSE(event.active_at(9));
  EXPECT_TRUE(event.active_at(10));
  EXPECT_TRUE(event.active_at(12));
  EXPECT_FALSE(event.active_at(13));
  EXPECT_FALSE(event.permanent());
}

TEST(FaultEvent, PermanentEventNeverExpires) {
  const FaultEvent event{FaultKind::kTdcStuckAt, 5, FaultEvent::kPermanent,
                         12.0};
  EXPECT_TRUE(event.permanent());
  EXPECT_FALSE(event.active_at(4));
  EXPECT_TRUE(event.active_at(5));
  EXPECT_TRUE(event.active_at(1'000'000));
}

TEST(FaultSchedule, ValidateEventRejectsUnphysicalParameters) {
  FaultEvent event{FaultKind::kTdcGlitch, 0, 1,
                   std::numeric_limits<double>::infinity()};
  EXPECT_FALSE(FaultSchedule::validate_event(event).is_ok());
  event.magnitude = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(FaultSchedule::validate_event(event).is_ok());

  // A TDC cannot present a negative code.
  event = {FaultKind::kTdcStuckAt, 0, 1, -1.0};
  EXPECT_FALSE(FaultSchedule::validate_event(event).is_ok());
  event.magnitude = 0.0;
  EXPECT_TRUE(FaultSchedule::validate_event(event).is_ok());

  // Magnitude-free kinds reject a magnitude that would be ignored.
  event = {FaultKind::kTdcDroppedSample, 0, 1, 1.0};
  EXPECT_FALSE(FaultSchedule::validate_event(event).is_ok());
  event = {FaultKind::kCdnDeliveryDrop, 0, 1, 2.0};
  EXPECT_FALSE(FaultSchedule::validate_event(event).is_ok());
  event = {FaultKind::kCdnDeliveryDrop, 0, 1, 0.0};
  EXPECT_TRUE(FaultSchedule::validate_event(event).is_ok());
}

TEST(FaultSchedule, AddKeepsEventsSortedByStart) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kTdcGlitch, 30, 1, 1.0})
      .add({FaultKind::kVoltageDroop, 10, 2, 3.0})
      .add({FaultKind::kRoStageFailure, 20, 1, -2.0});
  ASSERT_EQ(schedule.size(), 3u);
  const auto events = schedule.events();
  EXPECT_EQ(events[0].start_cycle, 10u);
  EXPECT_EQ(events[1].start_cycle, 20u);
  EXPECT_EQ(events[2].start_cycle, 30u);
}

TEST(FaultSchedule, RandomIsAPureFunctionOfSeedAndSpec) {
  RandomFaultSpec spec;
  spec.event_count = 16;
  const FaultSchedule a = FaultSchedule::random(1234, spec);
  const FaultSchedule b = FaultSchedule::random(1234, spec);
  EXPECT_EQ(a, b);
  const FaultSchedule c = FaultSchedule::random(1235, spec);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 16u);
  for (const FaultEvent& event : a.events()) {
    EXPECT_TRUE(FaultSchedule::validate_event(event).is_ok());
    EXPECT_LT(event.start_cycle, spec.horizon_cycles);
    EXPECT_GE(event.duration, 1u);
    EXPECT_LE(event.duration, spec.max_duration);
  }
}

TEST(FaultSchedule, RandomHonoursTheKindFilter) {
  RandomFaultSpec spec;
  spec.event_count = 12;
  spec.kinds = {FaultKind::kVoltageDroop};
  spec.droop_min = 2.0;
  spec.droop_max = 6.0;
  const FaultSchedule schedule = FaultSchedule::random(7, spec);
  for (const FaultEvent& event : schedule.events()) {
    EXPECT_EQ(event.kind, FaultKind::kVoltageDroop);
    EXPECT_GE(event.magnitude, 2.0);
    EXPECT_LE(event.magnitude, 6.0);
  }
}

TEST(FaultInjector, ResolvesPrecedenceAndSumsAdditiveKinds) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kTdcGlitch, 2, 4, 5.0})
      .add({FaultKind::kTdcGlitch, 3, 2, -1.0})
      .add({FaultKind::kTdcStuckAt, 4, 1, 100.0})
      .add({FaultKind::kVoltageDroop, 4, 2, 2.5})
      .add({FaultKind::kVoltageDroop, 5, 1, 1.5});
  FaultInjector injector{schedule};

  EXPECT_FALSE(injector.begin_cycle(0).any);
  EXPECT_FALSE(injector.begin_cycle(1).any);

  CycleFaults f = injector.begin_cycle(2);
  EXPECT_TRUE(f.any);
  EXPECT_DOUBLE_EQ(f.tau_glitch, 5.0);

  f = injector.begin_cycle(3);  // overlapping glitches sum
  EXPECT_DOUBLE_EQ(f.tau_glitch, 4.0);

  f = injector.begin_cycle(4);  // stuck-at masks the glitches
  EXPECT_TRUE(f.tau_stuck);
  EXPECT_DOUBLE_EQ(f.tau_stuck_value, 100.0);
  EXPECT_DOUBLE_EQ(f.tau_glitch, 4.0);
  EXPECT_DOUBLE_EQ(f.droop, 2.5);

  f = injector.begin_cycle(5);  // stuck expired, droops sum
  EXPECT_FALSE(f.tau_stuck);
  EXPECT_DOUBLE_EQ(f.droop, 4.0);

  f = injector.begin_cycle(6);
  EXPECT_FALSE(f.any);

  // reset() rewinds the cursor to cycle 0.
  injector.reset();
  EXPECT_FALSE(injector.begin_cycle(0).any);
  EXPECT_DOUBLE_EQ(injector.begin_cycle(2).tau_glitch, 5.0);
}

TEST(FaultInjector, NextStartCycleLetsACallerSkipQuietCycles) {
  FaultSchedule schedule;
  schedule.add({FaultKind::kTdcGlitch, 10, 3, 2.0})
      .add({FaultKind::kRoStageFailure, 11, FaultEvent::kPermanent, 1.0})
      .add({FaultKind::kVoltageDroop, 40, 1, 0.5});
  FaultInjector injector{schedule};
  EXPECT_EQ(injector.next_start_cycle(), 10u);
  EXPECT_FALSE(injector.begin_cycle(0).any);
  EXPECT_EQ(injector.next_start_cycle(), 10u);

  // Skipping cycles 1..11 catches up in schedule order: both early events
  // have started, the glitch is still in its window.
  CycleFaults f = injector.begin_cycle(12);
  EXPECT_DOUBLE_EQ(f.tau_glitch, 2.0);
  EXPECT_DOUBLE_EQ(f.ro_offset, 1.0);
  EXPECT_EQ(injector.next_start_cycle(), 40u);

  // A skip past the glitch's window retires it; the permanent event stays.
  f = injector.begin_cycle(30);
  EXPECT_DOUBLE_EQ(f.tau_glitch, 0.0);
  EXPECT_DOUBLE_EQ(f.ro_offset, 1.0);
  // Skipping a whole window retires its event unseen, which is why a
  // caller that skips must call again on next_start_cycle().
  f = injector.begin_cycle(41);
  EXPECT_DOUBLE_EQ(f.droop, 0.0);
  EXPECT_TRUE(f.any);
  EXPECT_EQ(injector.next_start_cycle(), FaultInjector::kNoPendingEvent);

  injector.reset();
  EXPECT_EQ(injector.next_start_cycle(), 10u);
  EXPECT_EQ(FaultInjector{FaultSchedule{}}.next_start_cycle(),
            FaultInjector::kNoPendingEvent);
}

}  // namespace
}  // namespace roclk::fault
