#include "roclk/fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "roclk/common/check.hpp"
#include "roclk/common/stream_key.hpp"

namespace roclk::fault {

Status FaultSchedule::validate_event(const FaultEvent& event) {
  if (!std::isfinite(event.magnitude)) {
    std::ostringstream os;
    os << to_string(event.kind) << " magnitude must be finite, got "
       << event.magnitude;
    return Status::invalid_argument(os.str());
  }
  switch (event.kind) {
    case FaultKind::kTdcStuckAt:
      if (event.magnitude < 0.0) {
        std::ostringstream os;
        os << "a TDC cannot present a negative code; stuck-at value "
           << event.magnitude << " is unreachable hardware state";
        return Status::invalid_argument(os.str());
      }
      break;
    case FaultKind::kTdcDroppedSample:
    case FaultKind::kCdnDeliveryDrop:
      if (event.magnitude != 0.0) {
        std::ostringstream os;
        os << to_string(event.kind) << " takes no magnitude, got "
           << event.magnitude << " (it would be silently ignored)";
        return Status::invalid_argument(os.str());
      }
      break;
    case FaultKind::kTdcGlitch:
    case FaultKind::kRoStageFailure:
    case FaultKind::kVoltageDroop:
      break;
  }
  return Status::ok();
}

FaultSchedule& FaultSchedule::add(const FaultEvent& event) {
  ROCLK_CHECK_OK(validate_event(event));
  // Insert keeping start order; stable for equal starts so a schedule's
  // replay order equals its build order.
  const auto at = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) {
        return a.start_cycle < b.start_cycle;
      });
  events_.insert(at, event);
  return *this;
}

FaultSchedule FaultSchedule::random(std::uint64_t seed,
                                    const RandomFaultSpec& spec) {
  return random(StreamKey{seed}.split("fault.schedule"), spec);
}

FaultSchedule FaultSchedule::random(StreamKey key,
                                    const RandomFaultSpec& spec) {
  ROCLK_CHECK(spec.horizon_cycles > spec.min_start,
              "fault horizon (" << spec.horizon_cycles
                                << " cycles) must exceed min_start ("
                                << spec.min_start << ")");
  ROCLK_CHECK(spec.max_duration >= 1,
              "max_duration must be >= 1, got " << spec.max_duration);
  static constexpr FaultKind kAllKinds[kFaultKindCount] = {
      FaultKind::kTdcStuckAt,      FaultKind::kTdcDroppedSample,
      FaultKind::kTdcGlitch,       FaultKind::kRoStageFailure,
      FaultKind::kCdnDeliveryDrop, FaultKind::kVoltageDroop,
  };
  std::vector<FaultKind> kinds = spec.kinds;
  if (kinds.empty()) kinds.assign(std::begin(kAllKinds), std::end(kAllKinds));

  // Every event owns the substream key.at(i) with a fixed draw order
  // (kind, start, duration, magnitude), so the schedule is a pure
  // function of (key, spec) and a prefix never depends on event_count.
  FaultSchedule schedule;
  for (std::size_t i = 0; i < spec.event_count; ++i) {
    CounterRng rng{key.at(i)};
    FaultEvent event;
    event.kind = kinds[rng.uniform_int(kinds.size())];
    event.start_cycle =
        spec.min_start +
        rng.uniform_int(spec.horizon_cycles - spec.min_start);
    event.duration = 1 + rng.uniform_int(spec.max_duration);
    const double draw = rng.uniform();
    switch (event.kind) {
      case FaultKind::kTdcStuckAt:
        event.magnitude =
            spec.stuck_min + (spec.stuck_max - spec.stuck_min) * draw;
        break;
      case FaultKind::kTdcGlitch:
        event.magnitude =
            spec.glitch_min + (spec.glitch_max - spec.glitch_min) * draw;
        break;
      case FaultKind::kRoStageFailure:
        event.magnitude =
            spec.ro_step_min + (spec.ro_step_max - spec.ro_step_min) * draw;
        break;
      case FaultKind::kVoltageDroop:
        event.magnitude =
            spec.droop_min + (spec.droop_max - spec.droop_min) * draw;
        break;
      case FaultKind::kTdcDroppedSample:
      case FaultKind::kCdnDeliveryDrop:
        event.magnitude = 0.0;  // the draw above still advanced the stream
        break;
    }
    schedule.add(event);
  }
  return schedule;
}

}  // namespace roclk::fault
