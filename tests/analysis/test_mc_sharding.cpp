// Scheduling-invariance gates for the sharded Monte-Carlo drivers.
//
// The reproducibility contract (DESIGN.md §13): every keyed Monte-Carlo is
// a pure function of its StreamKey — *bitwise* identical whether it runs
// sequentially, on one worker, or across hardware_concurrency() workers.
// CI runs this suite with ROCLK_SIMD=scalar and relies on it to gate the
// threading work: a data race or draw-order coupling that slips into a
// shard shows up here as a bit diff, not as a flaky statistic.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>
#include <tuple>
#include <vector>

#include "roclk/analysis/ensemble_metrics.hpp"
#include "roclk/analysis/yield.hpp"
#include "roclk/common/sharded_mc.hpp"
#include "roclk/common/stream_key.hpp"
#include "roclk/common/thread_pool.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/ensemble_simulator.hpp"
#include "roclk/fault/fault.hpp"
#include "roclk/signal/waveform.hpp"

namespace roclk {
namespace {

std::size_t full_width() {
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

TEST(McSchedulingTest, KeyedMapIsPoolInvariant) {
  const StreamKey key = StreamKey{404}.split("test.keyed_map");
  const std::size_t items = 257;  // deliberately not a multiple of anything
  const auto draw = [](std::size_t i, StreamKey item_key) {
    CounterRng rng{item_key};
    return rng.normal() + static_cast<double>(i) * 1e-9;
  };
  const auto sequential = mc::keyed_map(items, key, nullptr, draw);
  ASSERT_EQ(sequential.size(), items);

  ThreadPool one{1};
  EXPECT_EQ(mc::keyed_map(items, key, &one, draw), sequential);

  ThreadPool many{full_width()};
  EXPECT_EQ(mc::keyed_map(items, key, &many, draw), sequential);
}

// The headline gate: the yield Monte-Carlo's per-chip samples must be
// bitwise equal sequentially and on pools of 1, 2, 3 (a shard count that
// divides nothing), 8 and hardware_concurrency() workers.
TEST(McSchedulingTest, YieldSamplingIsBitwiseThreadInvariant) {
  analysis::YieldConfig config;
  config.chips = 120;
  config.paths = 16;
  config.seed = 20260808;

  const auto sequential = analysis::sample_worst_paths(config, nullptr);
  ASSERT_EQ(sequential.size(), config.chips);

  // EXPECT_EQ on the vectors compares every double bit-meaningfully (no
  // tolerance): scheduling must not change a single sample.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{8},
                                    full_width()}) {
    ThreadPool pool{workers};
    EXPECT_EQ(analysis::sample_worst_paths(config, &pool), sequential)
        << workers << " workers";
  }

  // And the shared pool (whatever its size) agrees too.
  EXPECT_EQ(analysis::sample_worst_paths(config, &ThreadPool::shared()),
            sequential);
}

TEST(McSchedulingTest, EnsembleMcIsBitwiseThreadInvariant) {
  core::LoopConfig loop;
  loop.setpoint_c = 64.0;
  loop.cdn_delay_stages = 64.0;
  loop.mode = core::GeneratorMode::kControlledRo;
  const control::IirControlHardware prototype{control::paper_iir_config()};

  // Enough lanes for several 32-lane chunks, so the pool actually shards.
  const std::size_t lanes = 96;
  std::vector<double> mus(lanes);
  for (std::size_t w = 0; w < lanes; ++w) {
    mus[w] = 64.0 * (-0.1 + 0.2 * static_cast<double>(w) /
                                static_cast<double>(lanes - 1));
  }
  const signal::SineWaveform hodv{12.8, 3200.0};
  const std::size_t cycles = 600;
  const std::size_t skip = 150;

  auto ensemble = core::EnsembleSimulator::uniform(loop, &prototype, lanes);
  const auto sequential = analysis::evaluate_homogeneous_mc(
      ensemble, hodv, mus, cycles, 64.0, {76.8}, skip,
      static_cast<ThreadPool*>(nullptr));

  ThreadPool many{full_width()};
  auto ensemble2 = core::EnsembleSimulator::uniform(loop, &prototype, lanes);
  const auto threaded = analysis::evaluate_homogeneous_mc(
      ensemble2, hodv, mus, cycles, 64.0, {76.8}, skip, &many);

  ASSERT_EQ(sequential.size(), threaded.size());
  for (std::size_t w = 0; w < lanes; ++w) {
    EXPECT_EQ(sequential[w].safety_margin, threaded[w].safety_margin);
    EXPECT_EQ(sequential[w].mean_period, threaded[w].mean_period);
    EXPECT_EQ(sequential[w].relative_adaptive_period,
              threaded[w].relative_adaptive_period);
    EXPECT_EQ(sequential[w].violations, threaded[w].violations);
    EXPECT_EQ(sequential[w].tau_ripple, threaded[w].tau_ripple);
  }
}

/// The bit pattern of a double: equal patterns are equal results, NaN and
/// signed zero included.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// A fault campaign through the Monte-Carlo driver.  100 lanes are three
// 32-lane chunks plus a 4-lane tail; seeded random schedules arm every
// 8th lane (perfbench's mc_campaign pattern), and a doubled 1e308 droop
// isolates mid-vector lane 34 (lane 2 of the second chunk).  1,000 cycles
// span several sampled tiles and end in a partial one.
TEST(McSchedulingTest, FaultedEnsembleMcIsBitwiseThreadInvariant) {
  core::LoopConfig loop;
  loop.setpoint_c = 64.0;
  loop.cdn_delay_stages = 64.0;
  loop.mode = core::GeneratorMode::kControlledRo;
  const control::IirControlHardware prototype{control::paper_iir_config()};

  const std::size_t lanes = 100;
  const std::size_t cycles = 1000;
  const std::size_t skip = 150;
  std::vector<double> mus(lanes);
  for (std::size_t w = 0; w < lanes; ++w) {
    mus[w] = 64.0 * (-0.1 + 0.2 * static_cast<double>(w) /
                                static_cast<double>(lanes - 1));
  }
  fault::RandomFaultSpec spec;
  spec.horizon_cycles = cycles;
  const StreamKey key = StreamKey{2024}.split("test.faulted_mc");
  std::vector<fault::FaultSchedule> schedules(lanes);
  for (std::size_t w = 0; w < lanes; w += 8) {
    schedules[w] = fault::FaultSchedule::random(key.at(w), spec);
  }
  schedules[34]
      .add({fault::FaultKind::kVoltageDroop, 400, 4, 1e308})
      .add({fault::FaultKind::kVoltageDroop, 400, 4, 1e308});
  const signal::SineWaveform hodv{12.8, 3200.0};

  struct Outcome {
    std::vector<analysis::RunMetrics> metrics;
    std::size_t isolated{0};
  };
  const auto run = [&](ThreadPool* pool) {
    auto ensemble = core::EnsembleSimulator::uniform(loop, &prototype, lanes);
    ensemble.attach_faults(schedules);
    Outcome out;
    out.metrics = analysis::evaluate_homogeneous_mc(
        ensemble, hodv, mus, cycles, 64.0, {76.8}, skip, pool);
    out.isolated = ensemble.isolated_count();
    return out;
  };

  const Outcome sequential = run(nullptr);
  ASSERT_EQ(sequential.metrics.size(), lanes);
  EXPECT_GE(sequential.isolated, 1u);

  ThreadPool one{1};
  ThreadPool many{full_width()};
  for (ThreadPool* pool : {&one, &many}) {
    SCOPED_TRACE(pool->size());
    const Outcome threaded = run(pool);
    ASSERT_EQ(threaded.metrics.size(), lanes);
    EXPECT_EQ(threaded.isolated, sequential.isolated);
    for (std::size_t w = 0; w < lanes; ++w) {
      const analysis::RunMetrics& a = sequential.metrics[w];
      const analysis::RunMetrics& b = threaded.metrics[w];
      EXPECT_EQ(bits(a.safety_margin), bits(b.safety_margin)) << w;
      EXPECT_EQ(bits(a.mean_period), bits(b.mean_period)) << w;
      EXPECT_EQ(bits(a.relative_adaptive_period),
                bits(b.relative_adaptive_period))
          << w;
      EXPECT_EQ(a.violations, b.violations) << w;
      EXPECT_EQ(bits(a.tau_ripple), bits(b.tau_ripple)) << w;
    }
  }
}

TEST(McSchedulingTest, FaultScheduleIsPureAndPrefixStable) {
  fault::RandomFaultSpec spec;
  spec.event_count = 8;
  const StreamKey key = StreamKey{7}.split("test.faults");

  // Purity: same (key, spec) => same schedule, call after call.
  const auto a = fault::FaultSchedule::random(key, spec);
  const auto b = fault::FaultSchedule::random(key, spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].start_cycle, b.events()[i].start_cycle);
    EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
    EXPECT_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
  }

  // Prefix stability: because event i draws from key.at(i), growing
  // event_count appends events without re-rolling the existing ones.
  fault::RandomFaultSpec bigger = spec;
  bigger.event_count = 12;
  const auto grown = fault::FaultSchedule::random(key, bigger);
  // Schedules are stored sorted by start; compare as multisets of tuples.
  const auto tuples = [](const fault::FaultSchedule& s) {
    std::vector<std::tuple<std::uint64_t, int, std::uint64_t, double>> v;
    for (const auto& e : s.events()) {
      v.emplace_back(e.start_cycle, static_cast<int>(e.kind), e.duration,
                     e.magnitude);
    }
    std::sort(v.begin(), v.end());
    return v;
  };
  const auto small_set = tuples(a);
  const auto grown_set = tuples(grown);
  // Every event of the smaller schedule appears verbatim in the larger.
  EXPECT_TRUE(std::includes(grown_set.begin(), grown_set.end(),
                            small_set.begin(), small_set.end()));

  // The raw-seed overload is the documented derivation.
  const auto via_seed = fault::FaultSchedule::random(std::uint64_t{55}, spec);
  const auto via_key = fault::FaultSchedule::random(
      StreamKey{55}.split("fault.schedule"), spec);
  ASSERT_EQ(via_seed.size(), via_key.size());
  for (std::size_t i = 0; i < via_seed.size(); ++i) {
    EXPECT_EQ(via_seed.events()[i].magnitude, via_key.events()[i].magnitude);
    EXPECT_EQ(via_seed.events()[i].start_cycle,
              via_key.events()[i].start_cycle);
  }
}

}  // namespace
}  // namespace roclk
