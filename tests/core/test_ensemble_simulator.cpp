#include "roclk/core/ensemble_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "roclk/analysis/ensemble_metrics.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/common/thread_pool.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/control/teatime.hpp"
#include "roclk/fault/fault.hpp"
#include "roclk/signal/waveform.hpp"

namespace roclk::core {
namespace {

constexpr double kSetpoint = 64.0;

LoopConfig lane_config(GeneratorMode mode, double cdn_delay,
                       double open_loop_margin = 0.0) {
  LoopConfig cfg;
  cfg.setpoint_c = kSetpoint;
  cfg.cdn_delay_stages = cdn_delay;
  cfg.mode = mode;
  if (mode != GeneratorMode::kControlledRo) {
    cfg.open_loop_period = kSetpoint + open_loop_margin;
  }
  return cfg;
}

/// Per-lane inputs with lane-dependent phase and mismatch, so every lane
/// exercises a genuinely different trajectory.
std::vector<SimulationInputs> varied_inputs(std::size_t lanes) {
  std::vector<SimulationInputs> inputs;
  inputs.reserve(lanes);
  for (std::size_t w = 0; w < lanes; ++w) {
    const double mu = -6.0 + 1.7 * static_cast<double>(w % 8);
    const double phase = 0.37 * static_cast<double>(w);
    inputs.push_back(SimulationInputs::harmonic(10.0, 1600.0, mu, phase));
  }
  return inputs;
}

/// Runs every lane of `ensemble`, built with `prototype` (null in the
/// open-loop modes), over `inputs` sampled for `cycles` cycles, and checks
/// each against a freshly built scalar LoopSimulator with a clone of it,
/// fed its own lane's inputs through run_batch.
void expect_lanes_match_scalar(EnsembleSimulator& ensemble,
                               const std::vector<SimulationInputs>& inputs,
                               std::size_t cycles,
                               const control::ControlBlock* prototype,
                               ThreadPool* pool = nullptr) {
  TraceReducer reducer{ensemble.width(), cycles};
  ensemble.reset();
  ensemble.run(sample_ensemble(inputs, cycles, kSetpoint), reducer, pool);
  for (std::size_t w = 0; w < ensemble.width(); ++w) {
    LoopSimulator scalar{ensemble.lane_config(w),
                         prototype != nullptr ? prototype->clone() : nullptr};
    const SimulationTrace reference =
        scalar.run_batch(inputs[w].sample(cycles, kSetpoint));
    const SimulationTrace& lane = reducer.trace(w);
    ASSERT_EQ(reference.size(), lane.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      ASSERT_EQ(reference.tau()[k], lane.tau()[k])
          << "lane " << w << " cycle " << k;
      ASSERT_EQ(reference.delta()[k], lane.delta()[k])
          << "lane " << w << " cycle " << k;
      ASSERT_EQ(reference.lro()[k], lane.lro()[k])
          << "lane " << w << " cycle " << k;
      ASSERT_EQ(reference.generated_period()[k], lane.generated_period()[k])
          << "lane " << w << " cycle " << k;
      ASSERT_EQ(reference.delivered_period()[k], lane.delivered_period()[k])
          << "lane " << w << " cycle " << k;
    }
    ASSERT_EQ(reference.violation_count(), lane.violation_count())
        << "lane " << w;
  }
}

// ------------------------------------------------------------- samplers

TEST(EnsembleInputs, SampleEnsembleMatchesPerLaneSampling) {
  const auto lanes = varied_inputs(11);
  const std::size_t n = 257;
  const auto block = sample_ensemble(lanes, n, kSetpoint);
  ASSERT_EQ(block.width, lanes.size());
  ASSERT_EQ(block.cycles, n);
  for (std::size_t w = 0; w < lanes.size(); ++w) {
    const InputBlock scalar = lanes[w].sample(n, kSetpoint);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t at = k * block.width + w;
      ASSERT_EQ(scalar.e_ro[k], block.e_ro[at]);
      ASSERT_EQ(scalar.e_tdc[k], block.e_tdc[at]);
      ASSERT_EQ(scalar.mu[k], block.mu[at]);
    }
  }
}

TEST(EnsembleInputs, ParallelSamplingMatchesSerial) {
  const auto lanes = varied_inputs(37);
  ThreadPool pool{4};
  const auto serial = sample_ensemble(lanes, 300, kSetpoint);
  const auto parallel = sample_ensemble(lanes, 300, kSetpoint, &pool);
  ASSERT_EQ(serial.e_ro, parallel.e_ro);
  ASSERT_EQ(serial.e_tdc, parallel.e_tdc);
  ASSERT_EQ(serial.mu, parallel.mu);
}

// ------------------------------------------- bit-for-bit vs run_batch

TEST(EnsembleSimulator, IirLanesMatchScalarRunBatchBitForBit) {
  // 19 lanes: not a multiple of the chunk width, so the tail chunk is
  // exercised.  Lane-dependent mismatch and phase give every lane its own
  // trajectory through the quantisers.
  const std::size_t lanes = 19;
  const LoopConfig cfg = lane_config(GeneratorMode::kControlledRo, 64.0);
  const control::IirControlHardware prototype;
  auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, lanes);
  EXPECT_TRUE(ensemble.uses_iir_fast_path());
  expect_lanes_match_scalar(ensemble, varied_inputs(lanes), 2000, &prototype);
}

TEST(EnsembleSimulator, HeterogeneousCdnDelaysMatchScalar) {
  // Different CDN delays per lane: the interleaved ring must honour each
  // lane's own history window and boundary conditions.
  const std::vector<double> delays{0.0, 16.0, 64.0, 96.0, 160.0, 640.0,
                                   48.0, 200.0, 1024.0};
  std::vector<LoopConfig> configs;
  for (double d : delays) {
    configs.push_back(lane_config(GeneratorMode::kControlledRo, d));
  }
  const control::IirControlHardware prototype;
  EnsembleSimulator ensemble{configs, &prototype};
  expect_lanes_match_scalar(ensemble, varied_inputs(delays.size()), 3000,
                            &prototype);
}

TEST(EnsembleSimulator, TeaTimeFallbackMatchesScalar) {
  const std::size_t lanes = 10;
  const LoopConfig cfg = lane_config(GeneratorMode::kControlledRo, 64.0);
  const control::TeaTimeControl prototype;
  auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, lanes);
  EXPECT_FALSE(ensemble.uses_iir_fast_path());
  expect_lanes_match_scalar(ensemble, varied_inputs(lanes), 2000, &prototype);
}

TEST(EnsembleSimulator, MovedEnsembleMatchesScalar) {
  // The kernel reads the ensemble's constants, its tap table, its
  // per-lane controllers and every chunk's lane block through pointers
  // set at construction; a move (perfbench heap-allocates the result of
  // uniform()) must leave them valid once the source is gone.
  const LoopConfig cfg = lane_config(GeneratorMode::kControlledRo, 64.0);
  const control::IirControlHardware iir;
  const control::TeaTimeControl teatime;
  const auto inputs = varied_inputs(37);
  for (const control::ControlBlock* prototype :
       {static_cast<const control::ControlBlock*>(&iir),
        static_cast<const control::ControlBlock*>(&teatime)}) {
    std::unique_ptr<EnsembleSimulator> moved;
    {
      auto source = EnsembleSimulator::uniform(cfg, prototype, 37);
      moved = std::make_unique<EnsembleSimulator>(std::move(source));
    }
    expect_lanes_match_scalar(*moved, inputs, 800, prototype);
  }
}

TEST(EnsembleSimulator, OpenLoopModesMatchScalar) {
  for (const GeneratorMode mode :
       {GeneratorMode::kFreeRunningRo, GeneratorMode::kFixedClock}) {
    std::vector<LoopConfig> configs;
    for (std::size_t w = 0; w < 9; ++w) {
      configs.push_back(
          lane_config(mode, 64.0, 1.5 * static_cast<double>(w)));
    }
    EnsembleSimulator ensemble{configs, nullptr};
    expect_lanes_match_scalar(ensemble, varied_inputs(9), 1500, nullptr);
  }
}

TEST(EnsembleSimulator, LinearInterpCdnMatchesScalar) {
  LoopConfig cfg = lane_config(GeneratorMode::kControlledRo, 80.0);
  cfg.cdn_quantization = cdn::DelayQuantization::kLinearInterp;
  cfg.quantize_lro = false;
  cfg.tdc_quantization = sensor::Quantization::kNone;
  const control::IirControlHardware prototype;
  auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, 7);
  expect_lanes_match_scalar(ensemble, varied_inputs(7), 1500, &prototype);
}

TEST(EnsembleSimulator, ParallelRunMatchesScalar) {
  const std::size_t lanes = 33;
  const LoopConfig cfg = lane_config(GeneratorMode::kControlledRo, 64.0);
  const control::IirControlHardware prototype;
  auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, lanes);
  expect_lanes_match_scalar(ensemble, varied_inputs(lanes), 1200, &prototype,
                            &ThreadPool::shared());
}

TEST(EnsembleSimulator, SuccessiveRunsContinueLikeRunBatch) {
  const LoopConfig cfg = lane_config(GeneratorMode::kControlledRo, 64.0);
  const control::IirControlHardware prototype;
  auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, 4);
  const auto inputs = varied_inputs(4);
  const auto first = sample_ensemble(inputs, 500, kSetpoint);
  TraceReducer reducer{4, 1000};
  ensemble.reset();
  ensemble.run(first, reducer);
  ensemble.run(first, reducer);  // continue, replaying the same samples
  for (std::size_t w = 0; w < 4; ++w) {
    LoopSimulator scalar{cfg,
                         std::make_unique<control::IirControlHardware>()};
    const InputBlock lane_block = inputs[w].sample(500, kSetpoint);
    SimulationTrace reference = scalar.run_batch(lane_block);
    const SimulationTrace continued = scalar.run_batch(lane_block);
    ASSERT_EQ(reducer.trace(w).size(), 1000u);
    for (std::size_t k = 0; k < 500; ++k) {
      ASSERT_EQ(reference.tau()[k], reducer.trace(w).tau()[k]);
      ASSERT_EQ(continued.tau()[k], reducer.trace(w).tau()[k + 500]);
    }
  }
}

TEST(EnsembleSimulator, RunHomogeneousMatchesWholeBlockRun) {
  // 70 lanes: two 32-lane chunks and a 6-lane chunk, each running over
  // the waveform segments the call samples once for all of them (8192
  // cycles, two over 9000 cycles) and reading its own lanes' mu.  Every
  // streamed value must equal a run over the whole sampled block, both
  // sequentially and on a pool.
  const std::size_t lanes = 70;
  const std::size_t cycles = 9000;
  const LoopConfig cfg = lane_config(GeneratorMode::kControlledRo, 64.0);
  const control::IirControlHardware prototype{control::paper_iir_config()};
  const signal::SineWaveform wave{10.0, 1600.0, 0.25};
  std::vector<double> mus(lanes);
  for (std::size_t w = 0; w < lanes; ++w) {
    mus[w] = -6.0 + 0.17 * static_cast<double>(w);
  }
  // The whole-block run: each lane's own homogeneous inputs, sampled.
  std::vector<SimulationInputs> inputs;
  for (const double mu : mus) {
    inputs.push_back(SimulationInputs::homogeneous(
        std::make_shared<signal::SineWaveform>(wave), mu));
  }
  auto whole = EnsembleSimulator::uniform(cfg, &prototype, lanes);
  TraceReducer reference{lanes, cycles};
  whole.run(sample_ensemble(inputs, cycles, kSetpoint), reference);

  ThreadPool pool{3};
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "sequential" : "pool");
    auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, lanes);
    TraceReducer streamed{lanes, cycles};
    ensemble.run_homogeneous(wave, mus, kSetpoint, cycles, streamed, p);
    for (std::size_t w = 0; w < lanes; ++w) {
      const SimulationTrace& want = reference.trace(w);
      const SimulationTrace& got = streamed.trace(w);
      ASSERT_EQ(got.size(), cycles) << "lane " << w;
      for (std::size_t k = 0; k < cycles; ++k) {
        ASSERT_EQ(want.tau()[k], got.tau()[k]) << "lane " << w << " " << k;
        ASSERT_EQ(want.delta()[k], got.delta()[k])
            << "lane " << w << " " << k;
        ASSERT_EQ(want.lro()[k], got.lro()[k]) << "lane " << w << " " << k;
        ASSERT_EQ(want.generated_period()[k], got.generated_period()[k])
            << "lane " << w << " " << k;
        ASSERT_EQ(want.delivered_period()[k], got.delivered_period()[k])
            << "lane " << w << " " << k;
      }
    }
  }
}

// ------------------------------------------------- streaming metrics

TEST(EnsembleMetrics, MetricsReducerMatchesEvaluateRunBitForBit) {
  using analysis::RunMetrics;
  const std::size_t lanes = 17;
  const std::size_t cycles = 2500;
  const std::size_t skip = 500;
  const double fixed_period = 1.2 * kSetpoint;
  const LoopConfig cfg = lane_config(GeneratorMode::kControlledRo, 64.0);
  const control::IirControlHardware prototype;
  auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, lanes);
  const auto inputs = varied_inputs(lanes);

  const std::vector<RunMetrics> streamed = analysis::evaluate_ensemble(
      ensemble, sample_ensemble(inputs, cycles, kSetpoint), {fixed_period},
      skip);
  ASSERT_EQ(streamed.size(), lanes);

  for (std::size_t w = 0; w < lanes; ++w) {
    LoopSimulator scalar{cfg,
                         std::make_unique<control::IirControlHardware>()};
    const RunMetrics reference = analysis::evaluate_run(
        scalar.run_batch(inputs[w].sample(cycles, kSetpoint)), kSetpoint,
        fixed_period, skip);
    ASSERT_EQ(reference.safety_margin, streamed[w].safety_margin)
        << "lane " << w;
    ASSERT_EQ(reference.mean_period, streamed[w].mean_period) << "lane " << w;
    ASSERT_EQ(reference.relative_adaptive_period,
              streamed[w].relative_adaptive_period)
        << "lane " << w;
    ASSERT_EQ(reference.violations, streamed[w].violations) << "lane " << w;
    ASSERT_EQ(reference.tau_ripple, streamed[w].tau_ripple) << "lane " << w;
  }
}

TEST(EnsembleMetrics, ReducerRejectsSkipLongerThanRun) {
  analysis::MetricsReducer reducer{std::vector<double>(2, 76.8), /*skip=*/100};
  EXPECT_THROW((void)reducer.metrics(0), std::logic_error);
}

// ------------------------------------------------------- lane storage

TEST(EnsembleSimulator, LaneArraysStartOnTheirOwnLines) {
  // A chunk's arrays lie back to back in its block, each on its own cache
  // line and padded to whole lines: chunks of odd widths, with and without
  // an IIR bank.
  for (const std::size_t width : {std::size_t{1}, std::size_t{5},
                                  std::size_t{31}, std::size_t{32}}) {
    for (const std::size_t bank : {std::size_t{0}, 12 * width}) {
      SCOPED_TRACE("width " + std::to_string(width) + " bank " +
                   std::to_string(bank));
      detail::ChunkLanes lanes;
      lanes.width = width;
      lanes.ring_slots = 128;
      lanes.row_shift = std::countr_zero(std::bit_ceil(width));
      const simd::LaneBlock block{
          [&](auto&& bind) { lanes.bind_arrays(bind, bank); }};
      const auto* next = reinterpret_cast<const std::byte*>(lanes.prev_lro);
      lanes.bind_arrays(
          [&]<class T>(T*& array, std::size_t n) {
            const auto* start = reinterpret_cast<const std::byte*>(array);
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(start) %
                          simd::kCacheLineBytes,
                      0u);
            EXPECT_EQ(start, next) << n << " entries";
            next = start + simd::lane_array_bytes<T>(n);
          },
          bank);
    }
  }
}

// ------------------------------------------------------- validation

TEST(EnsembleSimulator, ValidateRejectsBadEnsembles) {
  const LoopConfig controlled =
      lane_config(GeneratorMode::kControlledRo, 64.0);
  const LoopConfig free_ro = lane_config(GeneratorMode::kFreeRunningRo, 64.0);
  const control::IirControlHardware iir;

  // Empty ensemble.
  EXPECT_FALSE(EnsembleSimulator::validate({}, &iir).is_ok());

  // A controlled ensemble without its controller.
  {
    const std::vector<LoopConfig> configs{controlled, controlled};
    EXPECT_FALSE(EnsembleSimulator::validate(configs, nullptr).is_ok());
    EXPECT_TRUE(EnsembleSimulator::validate(configs, &iir).is_ok());
  }

  // A controller supplied to an open-loop ensemble.
  {
    const std::vector<LoopConfig> configs{free_ro};
    EXPECT_FALSE(EnsembleSimulator::validate(configs, &iir).is_ok());
    EXPECT_TRUE(EnsembleSimulator::validate(configs, nullptr).is_ok());
  }

  // Mixed generator modes.
  {
    const std::vector<LoopConfig> configs{controlled, free_ro};
    EXPECT_FALSE(EnsembleSimulator::validate(configs, &iir).is_ok());
  }

  // Mixed quantisation settings.
  {
    LoopConfig other = controlled;
    other.tdc_quantization = sensor::Quantization::kNone;
    const std::vector<LoopConfig> configs{controlled, other};
    EXPECT_FALSE(EnsembleSimulator::validate(configs, &iir).is_ok());
  }

  // A lane config that LoopSimulator itself would reject.
  {
    LoopConfig bad = controlled;
    bad.setpoint_c = -1.0;
    const std::vector<LoopConfig> configs{controlled, bad};
    EXPECT_FALSE(EnsembleSimulator::validate(configs, &iir).is_ok());
  }
}

TEST(EnsembleSimulator, RejectsOutOfRangeLroAtConstruction) {
  LoopConfig bad = lane_config(GeneratorMode::kControlledRo, 64.0);
  bad.min_length = 0;
  const std::vector<LoopConfig> configs{bad};
  const control::IirControlHardware prototype;
  EXPECT_FALSE(EnsembleSimulator::validate(configs, &prototype).is_ok());
  EXPECT_THROW(EnsembleSimulator::uniform(bad, &prototype, 3),
               std::logic_error);
}

TEST(EnsembleMetrics, HomogeneousMcRejectsBadLanePreconditions) {
  const LoopConfig cfg = lane_config(GeneratorMode::kControlledRo, 64.0);
  const control::IirControlHardware prototype;
  auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, 3);
  const signal::SineWaveform wave{10.0, 1600.0, 0.0};
  const std::vector<double> mu(3, 0.0);

  // One static mu per lane, exactly.
  const std::vector<double> mu_short(2, 0.0);
  EXPECT_THROW((void)analysis::evaluate_homogeneous_mc(
                   ensemble, wave, mu_short, 100, kSetpoint, {kSetpoint}, 10),
               std::logic_error);
  // Fixed periods: one per lane or one shared, nothing in between.
  EXPECT_THROW((void)analysis::evaluate_homogeneous_mc(
                   ensemble, wave, mu, 100, kSetpoint,
                   {kSetpoint, kSetpoint}, 10),
               std::logic_error);
  // The sampling period must be positive.
  EXPECT_THROW((void)analysis::evaluate_homogeneous_mc(
                   ensemble, wave, mu, 100, 0.0, {kSetpoint}, 10),
               std::logic_error);
  // The transient skip must leave at least one counted cycle.
  EXPECT_THROW((void)analysis::evaluate_homogeneous_mc(
                   ensemble, wave, mu, 100, kSetpoint, {kSetpoint}, 100),
               std::logic_error);
}

TEST(EnsembleMetrics, EnsembleRejectsBadSkipBeforeRunning) {
  // A skip that leaves no cycle is rejected up front, with
  // evaluate_homogeneous_mc's message, before the ensemble is reset or
  // run: armed lane 0, isolated by an infinite sample in an earlier run,
  // stays isolated (a reset and a run of the clean block would clear it).
  const LoopConfig cfg = lane_config(GeneratorMode::kControlledRo, 64.0);
  const control::IirControlHardware prototype;
  auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, 3);
  std::vector<fault::FaultSchedule> schedules(3);
  schedules[0].add({fault::FaultKind::kTdcGlitch, 5, 1, 2.0});
  ensemble.attach_faults(schedules);
  const auto block = sample_ensemble(varied_inputs(3), 100, kSetpoint);
  auto poisoned = block;
  poisoned.e_ro[20 * 3] = std::numeric_limits<double>::infinity();
  TraceReducer reducer{3, 100};
  ensemble.run(poisoned, reducer);
  ASSERT_TRUE(ensemble.isolated(0));

  for (const std::size_t skip : {std::size_t{100}, std::size_t{250}}) {
    try {
      (void)analysis::evaluate_ensemble(ensemble, block, {76.8}, skip);
      ADD_FAILURE() << "skip " << skip << " accepted";
    } catch (const std::logic_error& error) {
      EXPECT_NE(std::string{error.what()}.find(
                    "must leave at least one of the 100 cycles"),
                std::string::npos)
          << error.what();
    }
    EXPECT_TRUE(ensemble.isolated(0)) << "skip " << skip;
  }
}

/// Records the thread, the lane range and the cycle index of every slice,
/// per 32-lane chunk.  A chunk's record is written only by the thread
/// running that chunk, as the StreamingReducer contract allows.
class ChunkScheduleReducer final : public StreamingReducer {
 public:
  static constexpr std::size_t kChunkLanes = 32;

  explicit ChunkScheduleReducer(std::size_t chunks)
      : threads(chunks), groups(chunks) {}

  void accumulate(const LaneSlice& slice) override {
    const std::size_t chunk = slice.first_lane / kChunkLanes;
    threads[chunk].emplace_back(slice.cycle, std::this_thread::get_id());
    groups[chunk][{slice.first_lane, slice.width}].push_back(slice.cycle);
  }

  /// Per chunk: each slice's cycle and the thread that delivered it.
  std::vector<std::vector<std::pair<std::size_t, std::thread::id>>> threads;
  /// Per chunk: the cycle indices of each lane group (first lane, width).
  std::vector<std::map<std::pair<std::size_t, std::size_t>,
                       std::vector<std::size_t>>>
      groups;
};

/// Runs a 128-lane ensemble (4 chunks) through run_homogeneous for
/// `cycles` cycles on a 4-worker pool, then checks each chunk's schedule:
/// the slices of each span of `span_cycles` cycles came from one thread,
/// each lane group's cycles 0..cycles-1 arrived exactly once and in
/// order, and the groups cover the chunk's lanes exactly once.
void expect_chunk_schedule(std::size_t cycles, std::size_t span_cycles) {
  const std::size_t lanes = 128;
  const std::size_t chunks = lanes / ChunkScheduleReducer::kChunkLanes;
  const LoopConfig cfg = lane_config(GeneratorMode::kControlledRo, 64.0);
  const control::IirControlHardware prototype{control::paper_iir_config()};
  auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, lanes);
  const signal::SineWaveform wave{10.0, 1600.0, 0.0};
  std::vector<double> mus(lanes);
  for (std::size_t w = 0; w < lanes; ++w) {
    mus[w] = -6.0 + 1.7 * static_cast<double>(w % 8);
  }

  ThreadPool pool{4};
  ChunkScheduleReducer reducer{chunks};
  ensemble.run_homogeneous(wave, mus, kSetpoint, cycles, reducer, &pool);

  std::vector<std::size_t> every_cycle(cycles);
  std::iota(every_cycle.begin(), every_cycle.end(), std::size_t{0});
  for (std::size_t c = 0; c < chunks; ++c) {
    SCOPED_TRACE(c);
    const auto& threads = reducer.threads[c];
    ASSERT_FALSE(threads.empty());
    std::map<std::size_t, std::thread::id> span_thread;
    for (const auto& [cycle, thread] : threads) {
      const auto it =
          span_thread.try_emplace(cycle / span_cycles, thread).first;
      ASSERT_EQ(it->second, thread) << "cycle " << cycle;
    }
    EXPECT_EQ(span_thread.size(), (cycles - 1) / span_cycles + 1);
    std::size_t next_lane = c * ChunkScheduleReducer::kChunkLanes;
    for (const auto& [range, group_cycles] : reducer.groups[c]) {
      EXPECT_EQ(range.first, next_lane);
      EXPECT_EQ(group_cycles, every_cycle) << "group at lane " << range.first;
      next_lane = range.first + range.second;
    }
    EXPECT_EQ(next_lane, (c + 1) * ChunkScheduleReducer::kChunkLanes);
  }
}

TEST(EnsembleSimulator, ChunkRunsOnOneThreadPerCall) {
  // A run_homogeneous call shorter than its 8192-cycle segment makes each
  // chunk one pool task: its slices all come from one thread.  The chunk
  // runs lane group by lane group, each group's cycles 0..999 exactly once
  // and in order, and its groups cover the chunk's lanes exactly once.
  expect_chunk_schedule(1000, 1000);
}

TEST(EnsembleSimulator, ChunkRunsOnOneThreadPerSegment) {
  // Over several segments, each segment of a chunk is one pool task (one
  // thread per segment, though not the same one for every segment), and
  // each lane group's cycles still arrive once and in order across the
  // segment boundaries: the slice index counts from the call's start,
  // not the segment's.
  expect_chunk_schedule(2 * 8192 + 17, 8192);
}

TEST(EnsembleSimulator, RunRejectsMismatchedBlock) {
  const LoopConfig cfg = lane_config(GeneratorMode::kControlledRo, 64.0);
  const control::IirControlHardware prototype;
  auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, 3);
  TraceReducer reducer{3};
  const auto block = sample_ensemble(varied_inputs(4), 10, kSetpoint);
  EXPECT_THROW(ensemble.run(block, reducer), std::logic_error);
}

}  // namespace
}  // namespace roclk::core
