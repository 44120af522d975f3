// Bit-exactness of the vectorized ensemble kernel against the scalar
// LoopSimulator reference, across backends, ensemble widths that exercise
// every vector/tail split, every quantization mode, and every route:
// IIR bank, virtual controllers, open loop, fault-armed groups and
// out-of-domain configs.
//
// The ensemble engine promises each lane's streamed trace is identical to
// run_batch on that lane's config and inputs, and each lane's folded
// MetricsReducer figures identical to evaluate_run over that trace — on
// the forced portable scalar pack AND every vector backend this binary
// and CPU can run (AVX2, AVX-512, NEON).
// These tests are the gate behind that promise; perfbench's mc_campaign
// only times configurations this suite proves equivalent.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "roclk/analysis/ensemble_metrics.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/common/simd.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/control/teatime.hpp"
#include "roclk/core/ensemble_simulator.hpp"
#include "roclk/core/inputs.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/fault/fault.hpp"
#include "roclk/signal/waveform.hpp"

namespace roclk::core {
namespace {

namespace simd = roclk::simd;

constexpr double kSetpoint = 64.0;
constexpr std::size_t kCycles = 600;
// MetricsReducer's transient skip and fixed-clock reference period.  The
// skip lies inside the second run() call of the fault-window test.
constexpr std::size_t kSkip = 150;
constexpr double kFixedPeriod = 1.2 * kSetpoint;

/// Scoped backend override; restores env/native resolution even when an
/// ASSERT unwinds mid-test.
struct BackendOverrideGuard {
  explicit BackendOverrideGuard(simd::Backend backend) {
    simd::set_backend_override(backend);
  }
  ~BackendOverrideGuard() { simd::set_backend_override(std::nullopt); }
  BackendOverrideGuard(const BackendOverrideGuard&) = delete;
  BackendOverrideGuard& operator=(const BackendOverrideGuard&) = delete;
};

/// Every backend each test must be exact on: the scalar pack plus every
/// vector backend compiled in and supported by this CPU, so an AVX-512
/// host still tests AVX2.  Without a usable vector backend the list
/// collapses to one entry — the tests still cover the portable pack + tail
/// split.
std::vector<simd::Backend> backends_under_test() {
  std::vector<simd::Backend> backends{simd::Backend::kScalar};
  for (const simd::Backend backend :
       {simd::Backend::kAvx2, simd::Backend::kAvx512, simd::Backend::kNeon}) {
    if (simd::backend_compiled(backend) &&
        simd::backend_cpu_supported(backend)) {
      backends.push_back(backend);
    }
  }
  return backends;
}

LoopConfig make_config(sensor::Quantization tdc_q,
                       cdn::DelayQuantization cdn_q, bool quantize_lro) {
  LoopConfig cfg;
  cfg.setpoint_c = kSetpoint;
  cfg.cdn_delay_stages = kSetpoint;
  cfg.mode = GeneratorMode::kControlledRo;
  cfg.tdc_quantization = tdc_q;
  cfg.cdn_quantization = cdn_q;
  cfg.quantize_lro = quantize_lro;
  return cfg;
}

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

/// The paper's IIR controller, the prototype most tests run.
const control::ControlBlock& paper_iir() {
  static const control::IirControlHardware iir{control::paper_iir_config()};
  return iir;
}

/// Checks lane `w`'s streamed trace against its scalar reference, record
/// by record.  Equal arrays compare whole; only a mismatch walks the
/// records, to name the first one that differs.
void expect_same_trace(const SimulationTrace& reference,
                       const SimulationTrace& lane, std::size_t w) {
  ASSERT_EQ(reference.size(), lane.size()) << "lane " << w;
  const bool same = reference.tau() == lane.tau() &&
                    reference.delta() == lane.delta() &&
                    reference.lro() == lane.lro() &&
                    reference.generated_period() == lane.generated_period() &&
                    reference.delivered_period() == lane.delivered_period();
  for (std::size_t k = 0; !same && k < reference.size(); ++k) {
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

/// The bit pattern of a double: equal patterns are equal results, NaN and
/// signed zero included.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Checks lane `w`'s folded metrics against evaluate_run over its scalar
/// reference trace, bitwise.
void expect_same_metrics(const SimulationTrace& reference,
                         const analysis::RunMetrics& lane, std::size_t w) {
  const analysis::RunMetrics want =
      analysis::evaluate_run(reference, kSetpoint, kFixedPeriod, kSkip);
  ASSERT_EQ(bits(want.safety_margin), bits(lane.safety_margin))
      << "lane " << w;
  ASSERT_EQ(bits(want.mean_period), bits(lane.mean_period)) << "lane " << w;
  ASSERT_EQ(bits(want.relative_adaptive_period),
            bits(lane.relative_adaptive_period))
      << "lane " << w;
  ASSERT_EQ(want.violations, lane.violations) << "lane " << w;
  ASSERT_EQ(bits(want.tau_ripple), bits(lane.tau_ripple)) << "lane " << w;
}

/// One lane's scalar reference: run_batch's trace over the lane's own
/// inputs under its schedule, and whether that run isolated the lane.
struct LaneReference {
  SimulationTrace trace;
  bool isolated{false};
};

/// The reference of every lane of `inputs`, sampled for `cycles` cycles:
/// a fresh LoopSimulator of `cfg` with a clone of `prototype` (null in the
/// open-loop modes) and, when `faults` is set, the lane's schedule.  No
/// reference depends on the backend, so a test computes them once and
/// checks every backend against them.
std::vector<LaneReference> lane_references(
    const std::vector<SimulationInputs>& inputs, std::size_t cycles,
    const LoopConfig& cfg, const std::vector<fault::FaultSchedule>* faults,
    const control::ControlBlock* prototype = &paper_iir()) {
  std::vector<LaneReference> references;
  references.reserve(inputs.size());
  for (std::size_t w = 0; w < inputs.size(); ++w) {
    LoopSimulator scalar{cfg,
                         prototype != nullptr ? prototype->clone() : nullptr};
    if (faults != nullptr) scalar.attach_faults((*faults)[w]);
    SimulationTrace trace =
        scalar.run_batch(inputs[w].sample(cycles, kSetpoint));
    references.push_back({std::move(trace), scalar.isolated()});
  }
  return references;
}

/// Makes `inputs`' e_ro infinite on cycle `k` of a run sampled at
/// kSetpoint, leaving every other sample as it was.
void poison_e_ro(SimulationInputs& inputs, std::size_t k) {
  inputs.e_ro = [e_ro = std::move(inputs.e_ro), k](double t) {
    return static_cast<std::size_t>(t / kSetpoint) == k
               ? std::numeric_limits<double>::infinity()
               : e_ro(t);
  };
}

/// Runs an ensemble of `cfg` on `backend` over `inputs` sampled for
/// kCycles cycles, one lane per input, every lane running `prototype`
/// (null in the open-loop modes), and checks every lane's streamed trace
/// bitwise against a fresh scalar run_batch over the lane's own inputs
/// with a clone of it.  A second, identical ensemble runs the same block
/// into a MetricsReducer: every lane the reference does not isolate must
/// fold evaluate_run's figures of that trace, bitwise.
void expect_bit_exact_on(const std::vector<SimulationInputs>& inputs,
                         const LoopConfig& cfg, simd::Backend backend,
                         const std::vector<fault::FaultSchedule>* faults,
                         const control::ControlBlock* prototype) {
  BackendOverrideGuard forced{backend};
  const std::size_t width = inputs.size();
  const InputBlock block = sample_ensemble(inputs, kCycles, kSetpoint);
  const auto make_ensemble = [&] {
    auto ensemble = EnsembleSimulator::uniform(cfg, prototype, width);
    if (faults != nullptr) ensemble.attach_faults(*faults);
    return ensemble;
  };
  EnsembleSimulator ensemble = make_ensemble();
  TraceReducer reducer{width, kCycles};
  ensemble.run(block, reducer);
  EnsembleSimulator metered = make_ensemble();
  analysis::MetricsReducer metrics{
      std::vector<double>(width, kFixedPeriod), kSkip};
  metered.run(block, metrics);
  const auto references =
      lane_references(inputs, kCycles, cfg, faults, prototype);
  for (std::size_t w = 0; w < width; ++w) {
    const LaneReference& reference = references[w];
    ASSERT_NO_FATAL_FAILURE(
        expect_same_trace(reference.trace, reducer.trace(w), w));
    ASSERT_EQ(reference.isolated, metered.isolated(w)) << "lane " << w;
    if (!reference.isolated) {
      ASSERT_NO_FATAL_FAILURE(
          expect_same_metrics(reference.trace, metrics.metrics(w), w));
    }
  }
}

/// expect_bit_exact_on over `width` lanes of varied harmonics.
void expect_bit_exact(std::size_t width, const LoopConfig& cfg,
                      simd::Backend backend,
                      const std::vector<fault::FaultSchedule>* faults =
                          nullptr,
                      const control::ControlBlock* prototype = &paper_iir()) {
  expect_bit_exact_on(varied_inputs(width), cfg, backend, faults, prototype);
}

// Widths chosen around the vector geometry: 1 (pure tail), 3 and 5 are
// vector_width -/+ 1 for AVX2 (4) and odd for NEON (2), 7 and 9 are
// vector_width -/+ 1 for AVX-512 (8), 13 is prime (vector groups + odd
// tail), 33 crosses the 32-lane chunk boundary so a second chunk with a
// 1-lane tail runs too.
const std::size_t kWidths[] = {1, 3, 5, 7, 9, 13, 33};

TEST(EnsembleSimd, OddWidthsBitExactOnEveryBackend) {
  const LoopConfig cfg = make_config(sensor::Quantization::kFloor,
                                     cdn::DelayQuantization::kRound, true);
  for (const simd::Backend backend : backends_under_test()) {
    for (const std::size_t width : kWidths) {
      SCOPED_TRACE(std::string{"backend "} + simd::to_string(backend) +
                   " width " + std::to_string(width));
      expect_bit_exact(width, cfg, backend);
    }
  }
}

TEST(EnsembleSimd, AllQuantizationModesBitExactOnEveryBackend) {
  // Full cross of TDC quantization x CDN quantization, with quantize_lro
  // alternating so both LRO paths appear in the sweep.  Width 13 keeps
  // vector groups and a masked tail in play for every combination.
  const sensor::Quantization tdc_modes[] = {sensor::Quantization::kFloor,
                                            sensor::Quantization::kNearest,
                                            sensor::Quantization::kNone};
  const cdn::DelayQuantization cdn_modes[] = {
      cdn::DelayQuantization::kRound, cdn::DelayQuantization::kFloor,
      cdn::DelayQuantization::kLinearInterp};
  for (const simd::Backend backend : backends_under_test()) {
    std::size_t combo = 0;
    for (const auto tdc_q : tdc_modes) {
      for (const auto cdn_q : cdn_modes) {
        const bool quantize_lro = (combo++ % 2) == 0;
        SCOPED_TRACE(std::string{"backend "} + simd::to_string(backend) +
                     " tdc " + std::to_string(static_cast<int>(tdc_q)) +
                     " cdn " + std::to_string(static_cast<int>(cdn_q)) +
                     " lro " + (quantize_lro ? "q" : "raw"));
        expect_bit_exact(13, make_config(tdc_q, cdn_q, quantize_lro),
                         backend);
      }
    }
  }
}

TEST(EnsembleSimd, MidVectorIsolatedLaneFallsBackExactly) {
  // Lane 2 sits mid-vector in every backend's first group.  Its schedule
  // forces isolation; its group must take the width-1 fault route and
  // still reproduce run_batch bit for bit on every lane, isolated one
  // included.
  const std::size_t width = 8;
  const LoopConfig cfg = make_config(sensor::Quantization::kFloor,
                                     cdn::DelayQuantization::kRound, true);
  std::vector<fault::FaultSchedule> schedules(width);
  schedules[2]
      .add({fault::FaultKind::kVoltageDroop, 30, 4, 1e308})
      .add({fault::FaultKind::kVoltageDroop, 30, 4, 1e308});
  // A recoverable glitch elsewhere keeps a second lane on the fault route
  // without isolating it.
  schedules[5].add({fault::FaultKind::kTdcGlitch, 100, 1, 7.0});

  for (const simd::Backend backend : backends_under_test()) {
    SCOPED_TRACE(simd::to_string(backend));
    expect_bit_exact(width, cfg, backend, &schedules);
  }

  // The isolation verdict itself must also match the scalar simulator.
  BackendOverrideGuard forced{simd::native_backend()};
  const control::IirControlHardware prototype{control::paper_iir_config()};
  auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, width);
  ensemble.attach_faults(schedules);
  const auto block = sample_ensemble(varied_inputs(width), kCycles, kSetpoint);
  TraceReducer reducer{width, kCycles};
  ensemble.run(block, reducer);
  EXPECT_TRUE(ensemble.isolated(2));
  EXPECT_EQ(ensemble.isolated_count(), 1u);
}

// Widths for the route tests: a pure tail lane; 5, one vector group plus a
// tail on AVX2 and the scalar pack but a pure tail on AVX-512; 13, vector
// groups plus a tail on every backend; and two chunks.
const std::size_t kRouteWidths[] = {1, 5, 13, 33};

/// Per-lane fault schedules: seeded random events on lanes 0 and 9 of
/// every 16, the isolating double droop of 1e308 on mid-vector lane 2, and
/// no events elsewhere, so vector groups with and without armed lanes both
/// occur on every backend.
std::vector<fault::FaultSchedule> route_schedules(std::size_t width) {
  fault::RandomFaultSpec spec;
  spec.horizon_cycles = kCycles;
  spec.event_count = 6;
  std::vector<fault::FaultSchedule> schedules(width);
  for (std::size_t w = 0; w < width; ++w) {
    if (w == 2) {
      schedules[w]
          .add({fault::FaultKind::kVoltageDroop, 30, 4, 1e308})
          .add({fault::FaultKind::kVoltageDroop, 30, 4, 1e308});
    } else if (w % 16 == 0 || w % 16 == 9) {
      schedules[w] = fault::FaultSchedule::random(4100 + w, spec);
    }
  }
  return schedules;
}

/// Controllers the IIR bank cannot devirtualize: TEAtime and the hardened
/// IIR wrapper.
struct VirtualKind {
  const char* name;
  std::unique_ptr<control::ControlBlock> prototype;
};

std::vector<VirtualKind> virtual_kinds() {
  std::vector<VirtualKind> kinds;
  kinds.push_back({"teatime", std::make_unique<control::TeaTimeControl>()});
  kinds.push_back({"hardened_iir",
                   make_hardened_iir_system(kSetpoint, kSetpoint)
                       .controller()
                       ->clone()});
  return kinds;
}

TEST(EnsembleSimd, VirtualControllersBitExactOnEveryBackend) {
  const LoopConfig cfg = make_config(sensor::Quantization::kNearest,
                                     cdn::DelayQuantization::kLinearInterp,
                                     true);
  for (const VirtualKind& kind : virtual_kinds()) {
    ASSERT_FALSE(EnsembleSimulator::uniform(cfg, kind.prototype.get(), 2)
                     .uses_iir_fast_path())
        << kind.name;
    for (const simd::Backend backend : backends_under_test()) {
      for (const std::size_t width : kRouteWidths) {
        SCOPED_TRACE(std::string{kind.name} + " backend " +
                     simd::to_string(backend) + " width " +
                     std::to_string(width));
        expect_bit_exact(width, cfg, backend, nullptr, kind.prototype.get());
      }
    }
  }
}

TEST(EnsembleSimd, VirtualControllersUnderFaultsBitExactOnEveryBackend) {
  const LoopConfig cfg = make_config(sensor::Quantization::kNearest,
                                     cdn::DelayQuantization::kLinearInterp,
                                     true);
  for (const VirtualKind& kind : virtual_kinds()) {
    for (const simd::Backend backend : backends_under_test()) {
      for (const std::size_t width : kRouteWidths) {
        SCOPED_TRACE(std::string{kind.name} + " backend " +
                     simd::to_string(backend) + " width " +
                     std::to_string(width));
        const auto schedules = route_schedules(width);
        expect_bit_exact(width, cfg, backend, &schedules,
                         kind.prototype.get());
      }
    }
  }
}

TEST(EnsembleSimd, OpenLoopLanesUnderFaultsBitExactOnEveryBackend) {
  for (const GeneratorMode mode :
       {GeneratorMode::kFreeRunningRo, GeneratorMode::kFixedClock}) {
    LoopConfig cfg = make_config(sensor::Quantization::kFloor,
                                 cdn::DelayQuantization::kRound, true);
    cfg.mode = mode;
    cfg.open_loop_period = kSetpoint + 6.0;
    for (const simd::Backend backend : backends_under_test()) {
      for (const std::size_t width : kRouteWidths) {
        SCOPED_TRACE(std::string{"mode "} +
                     std::to_string(static_cast<int>(mode)) + " backend " +
                     simd::to_string(backend) + " width " +
                     std::to_string(width));
        const auto schedules = route_schedules(width);
        expect_bit_exact(width, cfg, backend, &schedules, nullptr);
      }
    }
  }
}

TEST(EnsembleSimd, OutOfDomainConfigBitExactOnEveryBackend) {
  // A TDC chain of 2^50 stages lies outside the vector backends' exact
  // int64<->double window (static magnitudes up to 2^49).
  LoopConfig cfg = make_config(sensor::Quantization::kFloor,
                               cdn::DelayQuantization::kRound, true);
  cfg.tdc_max_reading = std::int64_t{1} << 50;
  for (const simd::Backend backend : backends_under_test()) {
    for (const std::size_t width : kRouteWidths) {
      SCOPED_TRACE(std::string{"backend "} + simd::to_string(backend) +
                   " width " + std::to_string(width));
      expect_bit_exact(width, cfg, backend);
      const auto schedules = route_schedules(width);
      expect_bit_exact(width, cfg, backend, &schedules);
    }
  }
}

// Fault windows against every boundary the fault route carries state
// across: run() calls, run_homogeneous's waveform segments and reset().
// 33 lanes are a full chunk plus a 1-lane second chunk; run_homogeneous
// samples the waveform in segments of 8192 cycles and runs every chunk
// over each, so its second segment starts at cycle 8192.
constexpr std::size_t kWindowWidth = 33;
constexpr std::size_t kWindowCycles = 8300;
const std::size_t kRunSplits[] = {0, 100, 257, kWindowCycles};

/// Hand-placed schedules on lanes 0, 8, 9, 16, 24 and 32; every other
/// lane is fault-free.
std::vector<fault::FaultSchedule> window_schedules() {
  using fault::FaultEvent;
  using fault::FaultKind;
  std::vector<fault::FaultSchedule> schedules(kWindowWidth);
  // An event on cycle 0, and two windows across the segment boundary at
  // 8192: one ending on its first cycle, one starting on its last.
  schedules[0]
      .add({FaultKind::kTdcGlitch, 0, 1, 5.0})
      .add({FaultKind::kRoStageFailure, 8188, 5, 3.0})
      .add({FaultKind::kCdnDeliveryDrop, 8191, 4, 0.0});
  // Overlapping windows on one lane, and a window on a second lane of
  // its vector group (lanes 8-15 on AVX-512, 8-11 on AVX2 and the scalar
  // pack, 8-9 on NEON) that overlaps both.
  schedules[8]
      .add({FaultKind::kTdcStuckAt, 150, 20, 40.0})
      .add({FaultKind::kTdcGlitch, 160, 30, -6.0});
  schedules[9].add({FaultKind::kVoltageDroop, 165, 10, 4.0});
  // Windows straddling the run() boundaries at cycles 100 and 257, then
  // an event that never ends.
  schedules[16]
      .add({FaultKind::kRoStageFailure, 98, 4, -2.0})
      .add({FaultKind::kCdnDeliveryDrop, 255, 4, 0.0})
      .add({FaultKind::kTdcGlitch, 330, FaultEvent::kPermanent, -3.0});
  // A 1-cycle doubled 1e308 droop: the summed droop overflows, so the
  // lane isolates on cycle 201, the first cycle after its window.
  schedules[24]
      .add({FaultKind::kVoltageDroop, 200, 1, 1e308})
      .add({FaultKind::kVoltageDroop, 200, 1, 1e308});
  // A permanent event on the second chunk's only lane.
  schedules[32].add(
      {FaultKind::kRoStageFailure, 120, FaultEvent::kPermanent, 2.0});
  return schedules;
}

/// Cycles [begin, end) of `block`.
InputBlock cycle_range(const InputBlock& block, std::size_t begin,
                       std::size_t end) {
  InputBlock part;
  part.width = block.width;
  part.cycles = end - begin;
  const auto first = static_cast<std::ptrdiff_t>(begin * block.width);
  const auto last = static_cast<std::ptrdiff_t>(end * block.width);
  part.e_ro.assign(block.e_ro.begin() + first, block.e_ro.begin() + last);
  part.e_tdc.assign(block.e_tdc.begin() + first, block.e_tdc.begin() + last);
  part.mu.assign(block.mu.begin() + first, block.mu.begin() + last);
  return part;
}

/// Every lane of `ensemble`'s run into `reducer` against its reference
/// (run_batch over the lane's inputs with the same schedule), isolation
/// verdict included; and every lane the reference does not isolate of
/// `metered`'s identical run into `metrics` against evaluate_run over
/// that trace.
void expect_faulted_lanes_exact(
    const EnsembleSimulator& ensemble, const TraceReducer& reducer,
    const EnsembleSimulator& metered, const analysis::MetricsReducer& metrics,
    const std::vector<LaneReference>& references) {
  for (std::size_t w = 0; w < references.size(); ++w) {
    const LaneReference& reference = references[w];
    ASSERT_NO_FATAL_FAILURE(
        expect_same_trace(reference.trace, reducer.trace(w), w));
    ASSERT_EQ(reference.isolated, ensemble.isolated(w)) << "lane " << w;
    ASSERT_EQ(reference.isolated, metered.isolated(w)) << "lane " << w;
    if (!reference.isolated) {
      ASSERT_NO_FATAL_FAILURE(
          expect_same_metrics(reference.trace, metrics.metrics(w), w));
    }
  }
}

TEST(EnsembleSimd, FaultWindowsAcrossCallsAndTilesBitExact) {
  const LoopConfig cfg = make_config(sensor::Quantization::kFloor,
                                     cdn::DelayQuantization::kRound, true);
  const auto schedules = window_schedules();
  // run() inputs: an infinite e_ro sample on armed lane 8 at cycle 310,
  // long after its windows, isolates it on cycle 311 while the other
  // lanes of its group run on.
  auto inputs = varied_inputs(kWindowWidth);
  poison_e_ro(inputs[8], 310);
  const auto block = sample_ensemble(inputs, kWindowCycles, kSetpoint);
  // run_homogeneous inputs: one sine on every lane plus a static mu.
  const signal::SineWaveform wave{10.0, 1600.0};
  std::vector<double> mus(kWindowWidth);
  std::vector<SimulationInputs> homogeneous;
  for (std::size_t w = 0; w < kWindowWidth; ++w) {
    mus[w] = -6.0 + 1.7 * static_cast<double>(w % 8);
    homogeneous.push_back(SimulationInputs::homogeneous(
        std::make_shared<signal::SineWaveform>(wave), mus[w]));
  }
  // The scalar references depend on no backend: each is computed once.
  const auto block_references =
      lane_references(inputs, kWindowCycles, cfg, &schedules);
  const auto homogeneous_references =
      lane_references(homogeneous, kWindowCycles, cfg, &schedules);
  for (const simd::Backend backend : backends_under_test()) {
    SCOPED_TRACE(simd::to_string(backend));
    BackendOverrideGuard forced{backend};
    const control::IirControlHardware prototype{control::paper_iir_config()};
    // `ensemble` runs into a TraceReducer and `metered`, the same way,
    // into a MetricsReducer whose skip (150) falls inside the second run()
    // call, so its cycles-seen count is carried across calls and, in
    // run_homogeneous, across segments.
    auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, kWindowWidth);
    auto metered = EnsembleSimulator::uniform(cfg, &prototype, kWindowWidth);
    ensemble.attach_faults(schedules);
    metered.attach_faults(schedules);
    const auto run_in_calls = [&](EnsembleSimulator& target,
                                  StreamingReducer& reducer) {
      for (std::size_t i = 0; i + 1 < std::size(kRunSplits); ++i) {
        target.run(cycle_range(block, kRunSplits[i], kRunSplits[i + 1]),
                   reducer);
      }
    };

    {
      SCOPED_TRACE("successive run() calls");
      TraceReducer reducer{kWindowWidth, kWindowCycles};
      analysis::MetricsReducer metrics{
          std::vector<double>(kWindowWidth, kFixedPeriod), kSkip};
      run_in_calls(ensemble, reducer);
      run_in_calls(metered, metrics);
      ASSERT_TRUE(ensemble.isolated(8));
      ASSERT_TRUE(ensemble.isolated(24));
      ASSERT_NO_FATAL_FAILURE(expect_faulted_lanes_exact(
          ensemble, reducer, metered, metrics, block_references));
    }
    {
      SCOPED_TRACE("run_homogeneous after reset()");
      ensemble.reset();
      metered.reset();
      TraceReducer reducer{kWindowWidth, kWindowCycles};
      analysis::MetricsReducer metrics{
          std::vector<double>(kWindowWidth, kFixedPeriod), kSkip};
      ensemble.run_homogeneous(wave, mus, kSetpoint, kWindowCycles, reducer,
                               nullptr);
      metered.run_homogeneous(wave, mus, kSetpoint, kWindowCycles, metrics,
                              nullptr);
      ASSERT_NO_FATAL_FAILURE(expect_faulted_lanes_exact(
          ensemble, reducer, metered, metrics, homogeneous_references));
    }
    {
      SCOPED_TRACE("successive run() calls after reset()");
      ensemble.reset();
      metered.reset();
      TraceReducer reducer{kWindowWidth, kWindowCycles};
      analysis::MetricsReducer metrics{
          std::vector<double>(kWindowWidth, kFixedPeriod), kSkip};
      run_in_calls(ensemble, reducer);
      run_in_calls(metered, metrics);
      ASSERT_NO_FATAL_FAILURE(expect_faulted_lanes_exact(
          ensemble, reducer, metered, metrics, block_references));
    }
  }
}

/// The cycles `lane` runs under `schedule` before it is isolated: a
/// LoopSimulator stepped until isolated(), the isolating cycle excluded.
std::size_t cycles_before_isolation(const LoopConfig& cfg,
                                    const fault::FaultSchedule& schedule,
                                    const InputBlock& lane) {
  LoopSimulator scalar{cfg, paper_iir().clone()};
  scalar.attach_faults(schedule);
  for (std::size_t k = 0; k < lane.cycles; ++k) {
    (void)scalar.step(lane.e_ro[k], lane.e_tdc[k], lane.mu[k]);
    if (scalar.isolated()) return k;
  }
  return lane.cycles;
}

TEST(EnsembleSimd, IsolatedLaneFoldsItsCyclesBeforeIsolation) {
  // 40 lanes: a full chunk and an 8-lane one.  Lane 34, mid-vector in the
  // second chunk (McScheduling's faulted Monte-Carlo pattern), isolates
  // after the skip on a fault cycle, in the width-1 body.  Armed lane 13,
  // the only armed lane of its vector group on every backend, isolates
  // after the skip on a quiet cycle, in the vector body, where the fold
  // masks it out.  Lane 20 isolates during the transient.
  constexpr std::size_t kLanes = 40;
  constexpr std::size_t kRunCycles = 1000;
  const LoopConfig cfg = make_config(sensor::Quantization::kFloor,
                                     cdn::DelayQuantization::kRound, true);
  std::vector<fault::FaultSchedule> schedules(kLanes);
  schedules[34]
      .add({fault::FaultKind::kVoltageDroop, 400, 4, 1e308})
      .add({fault::FaultKind::kVoltageDroop, 400, 4, 1e308});
  schedules[20]
      .add({fault::FaultKind::kVoltageDroop, 60, 4, 1e308})
      .add({fault::FaultKind::kVoltageDroop, 60, 4, 1e308});
  schedules[13].add({fault::FaultKind::kTdcGlitch, 50, 1, 5.0});
  auto inputs = varied_inputs(kLanes);
  poison_e_ro(inputs[13], 700);
  const auto block = sample_ensemble(inputs, kRunCycles, kSetpoint);

  for (const simd::Backend backend : backends_under_test()) {
    SCOPED_TRACE(simd::to_string(backend));
    BackendOverrideGuard forced{backend};
    const control::IirControlHardware prototype{control::paper_iir_config()};
    auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, kLanes);
    ensemble.attach_faults(schedules);
    const std::vector<analysis::RunMetrics> metrics =
        analysis::evaluate_ensemble(ensemble, block, {kFixedPeriod}, kSkip);
    ASSERT_EQ(ensemble.isolated_count(), 3u);

    for (std::size_t w = 0; w < kLanes; ++w) {
      SCOPED_TRACE("lane " + std::to_string(w));
      const std::size_t good = cycles_before_isolation(
          cfg, schedules[w], inputs[w].sample(kRunCycles, kSetpoint));
      ASSERT_EQ(good < kRunCycles, ensemble.isolated(w));
      if (w == 20) {
        // No cycle folded: no figure, rather than a perfect-looking one.
        ASSERT_LT(good, kSkip);
        EXPECT_TRUE(std::isnan(metrics[w].safety_margin));
        EXPECT_TRUE(std::isnan(metrics[w].mean_period));
        EXPECT_TRUE(std::isnan(metrics[w].relative_adaptive_period));
        EXPECT_TRUE(std::isnan(metrics[w].tau_ripple));
        EXPECT_EQ(metrics[w].violations, 0u);
        continue;
      }
      ASSERT_GT(good, kSkip);
      LoopSimulator scalar{cfg, paper_iir().clone()};
      scalar.attach_faults(schedules[w]);
      ASSERT_NO_FATAL_FAILURE(expect_same_metrics(
          scalar.run_batch(inputs[w].sample(good, kSetpoint)), metrics[w],
          w));
    }
  }
}

TEST(EnsembleSimd, UnarmedLaneWithNonFiniteInputRunsOnExactly) {
  // An empty schedule leaves its lane fault-free, isolation test included,
  // in LoopSimulator and in the ensemble alike.  Lanes 1 and 8 of a
  // 9-lane ensemble whose lane 0 is armed see an infinite e_ro sample on
  // cycle 20 and run on, bitwise as their references with their empty
  // schedules attached.  Lane 1 shares its vector group with armed lane 0
  // on every backend; lane 8 is a tail lane on every backend.
  constexpr std::size_t kWidth = 9;
  const LoopConfig cfg = make_config(sensor::Quantization::kFloor,
                                     cdn::DelayQuantization::kRound, true);
  std::vector<fault::FaultSchedule> schedules(kWidth);
  schedules[0].add({fault::FaultKind::kTdcGlitch, 50, 1, 5.0});
  auto inputs = varied_inputs(kWidth);
  for (const std::size_t lane : {std::size_t{1}, std::size_t{8}}) {
    poison_e_ro(inputs[lane], 20);
  }
  const auto block = sample_ensemble(inputs, kCycles, kSetpoint);
  for (const simd::Backend backend : backends_under_test()) {
    SCOPED_TRACE(simd::to_string(backend));
    expect_bit_exact_on(inputs, cfg, backend, &schedules, &paper_iir());
    BackendOverrideGuard forced{backend};
    const control::IirControlHardware prototype{control::paper_iir_config()};
    auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, kWidth);
    ensemble.attach_faults(schedules);
    TraceReducer reducer{kWidth, kCycles};
    ensemble.run(block, reducer);
    EXPECT_EQ(ensemble.isolated_count(), 0u);
    // The infinite sample reached both lanes' traces.
    for (const std::size_t lane : {std::size_t{1}, std::size_t{8}}) {
      EXPECT_TRUE(std::isinf(reducer.trace(lane).generated_period()[21]))
          << "lane " << lane;
    }
  }
}

/// A waveform read from a table by sample index: at(k * dt) is
/// values[first + k] exactly, because dt is a power of two, so a run split
/// over two run_homogeneous calls (each counting k from 0) can see the
/// very inputs of one call.
class TableWave final : public signal::Waveform {
 public:
  TableWave(const std::vector<double>& values, double dt, std::size_t first)
      : values_{&values}, dt_{dt}, first_{first} {}
  [[nodiscard]] double at(double t) const override {
    return (*values_)[first_ + static_cast<std::size_t>(t / dt_)];
  }
  [[nodiscard]] std::unique_ptr<signal::Waveform> clone() const override {
    return std::make_unique<TableWave>(*this);
  }

 private:
  const std::vector<double>* values_;
  double dt_;
  std::size_t first_;
};

/// Every lane of `split`'s and `whole`'s runs (traces into `split_trace`
/// and `whole_trace`, metrics into `split_metrics` and `whole_metrics`)
/// against its reference and against each other, bitwise, isolation
/// verdicts included.
void expect_splits_exact(const EnsembleSimulator& split,
                         const TraceReducer& split_trace,
                         const analysis::MetricsReducer& split_metrics,
                         const EnsembleSimulator& whole,
                         const TraceReducer& whole_trace,
                         const analysis::MetricsReducer& whole_metrics,
                         const std::vector<LaneReference>& references) {
  for (std::size_t w = 0; w < references.size(); ++w) {
    const LaneReference& reference = references[w];
    ASSERT_NO_FATAL_FAILURE(
        expect_same_trace(reference.trace, split_trace.trace(w), w));
    ASSERT_NO_FATAL_FAILURE(
        expect_same_trace(reference.trace, whole_trace.trace(w), w));
    ASSERT_EQ(reference.isolated, split.isolated(w)) << "lane " << w;
    ASSERT_EQ(reference.isolated, whole.isolated(w)) << "lane " << w;
    if (!reference.isolated) {
      ASSERT_NO_FATAL_FAILURE(expect_same_metrics(
          reference.trace, split_metrics.metrics(w), w));
      ASSERT_NO_FATAL_FAILURE(expect_same_metrics(
          reference.trace, whole_metrics.metrics(w), w));
    }
  }
}

TEST(EnsembleSimd, StateCarriedAcrossCallsAndTilesBitExact) {
  // A kernel call loads each lane group's state into registers and stores
  // it at the end, so every call boundary is a state round trip.  run()
  // over 600 cycles in calls of 1 + 255 + 344 cycles, and run_homogeneous
  // over 8191, 8192, 8193 and 2 * 8192 + 1 cycles (around its 8192-cycle
  // segments, each a kernel call per chunk) in calls of 257 cycles and
  // the rest, must match one call and run_batch bitwise: widths 1, 9 and
  // 33, with and without armed lanes, into a TraceReducer and a
  // MetricsReducer, on every backend.  The run_batch references depend on
  // no backend, so each case computes them once and checks every backend
  // against them.
  const LoopConfig cfg = make_config(sensor::Quantization::kNearest,
                                     cdn::DelayQuantization::kRound, true);
  const std::size_t kRunCalls[] = {1, 255, 344};
  constexpr std::size_t kLongest = 2 * 8192 + 1;
  const std::size_t kHomogeneousCycles[] = {8191, 8192, 8193, kLongest};
  constexpr std::size_t kFirstCall = 257;
  const signal::SineWaveform sine{10.0, 1600.0};
  std::vector<double> wave(kLongest);
  for (std::size_t k = 0; k < kLongest; ++k) {
    wave[k] = sine.at(static_cast<double>(k) * kSetpoint);
  }
  const std::vector<simd::Backend> backends = backends_under_test();

  for (const std::size_t width : {std::size_t{1}, std::size_t{9},
                                  std::size_t{33}}) {
    for (const bool armed : {false, true}) {
      SCOPED_TRACE("width " + std::to_string(width) +
                   (armed ? " armed" : " clean"));
      std::vector<fault::FaultSchedule> schedules(width);
      if (armed) {
        fault::RandomFaultSpec spec;
        spec.horizon_cycles = kLongest;
        for (std::size_t w = 0; w < width; w += 8) {
          schedules[w] = fault::FaultSchedule::random(9100 + w, spec);
        }
      }
      const control::IirControlHardware prototype{
          control::paper_iir_config()};
      const auto make = [&] {
        auto ensemble = EnsembleSimulator::uniform(cfg, &prototype, width);
        if (armed) ensemble.attach_faults(schedules);
        return ensemble;
      };
      std::vector<double> mus(width);
      std::vector<SimulationInputs> homogeneous;
      for (std::size_t w = 0; w < width; ++w) {
        mus[w] = -6.0 + 1.7 * static_cast<double>(w % 8);
        homogeneous.push_back(SimulationInputs::homogeneous(
            std::make_shared<TableWave>(wave, kSetpoint, std::size_t{0}),
            mus[w]));
      }

      {
        SCOPED_TRACE("run() in calls of 1 + 255 + 344 cycles");
        const auto inputs = varied_inputs(width);
        const auto block = sample_ensemble(inputs, kCycles, kSetpoint);
        const auto references =
            lane_references(inputs, kCycles, cfg, &schedules);
        for (const simd::Backend backend : backends) {
          SCOPED_TRACE(simd::to_string(backend));
          BackendOverrideGuard forced{backend};
          auto split = make();
          auto split_metered = make();
          auto whole = make();
          auto whole_metered = make();
          TraceReducer split_trace{width, kCycles};
          TraceReducer whole_trace{width, kCycles};
          analysis::MetricsReducer split_metrics{
              std::vector<double>(width, kFixedPeriod), kSkip};
          analysis::MetricsReducer whole_metrics{
              std::vector<double>(width, kFixedPeriod), kSkip};
          std::size_t begin = 0;
          for (const std::size_t n : kRunCalls) {
            const auto part = cycle_range(block, begin, begin + n);
            split.run(part, split_trace);
            split_metered.run(part, split_metrics);
            begin += n;
          }
          ASSERT_EQ(begin, kCycles);
          whole.run(block, whole_trace);
          whole_metered.run(block, whole_metrics);
          ASSERT_NO_FATAL_FAILURE(expect_splits_exact(
              split, split_trace, split_metrics, whole, whole_trace,
              whole_metrics, references));
          ASSERT_EQ(split_metered.fault_group_cycles(),
                    whole_metered.fault_group_cycles());
        }
      }
      for (const std::size_t cycles : kHomogeneousCycles) {
        SCOPED_TRACE("run_homogeneous over " + std::to_string(cycles) +
                     " cycles in calls of 257 and the rest");
        const auto references =
            lane_references(homogeneous, cycles, cfg, &schedules);
        const TableWave first{wave, kSetpoint, 0};
        const TableWave rest{wave, kSetpoint, kFirstCall};
        for (const simd::Backend backend : backends) {
          SCOPED_TRACE(simd::to_string(backend));
          BackendOverrideGuard forced{backend};
          auto split = make();
          auto split_metered = make();
          auto whole = make();
          auto whole_metered = make();
          TraceReducer split_trace{width, cycles};
          TraceReducer whole_trace{width, cycles};
          analysis::MetricsReducer split_metrics{
              std::vector<double>(width, kFixedPeriod), kSkip};
          analysis::MetricsReducer whole_metrics{
              std::vector<double>(width, kFixedPeriod), kSkip};
          for (auto* target : {&split, &split_metered}) {
            StreamingReducer& reducer =
                target == &split ? static_cast<StreamingReducer&>(split_trace)
                                 : split_metrics;
            target->run_homogeneous(first, mus, kSetpoint, kFirstCall,
                                    reducer, nullptr);
            target->run_homogeneous(rest, mus, kSetpoint,
                                    cycles - kFirstCall, reducer, nullptr);
          }
          whole.run_homogeneous(first, mus, kSetpoint, cycles, whole_trace,
                                nullptr);
          whole_metered.run_homogeneous(first, mus, kSetpoint, cycles,
                                        whole_metrics, nullptr);
          ASSERT_NO_FATAL_FAILURE(expect_splits_exact(
              split, split_trace, split_metrics, whole, whole_trace,
              whole_metrics, references));
          ASSERT_EQ(split_metered.fault_group_cycles(),
                    whole_metered.fault_group_cycles());
        }
      }
    }
  }
}

/// Consumes nothing: the route counters are the only output under test.
class DiscardReducer final : public StreamingReducer {
 public:
  void accumulate(const LaneSlice& /*slice*/) override {}
};

/// Cycles in [0, cycles) on which the kernel consults a lane's injector,
/// from a fresh reset(): the first cycle, each cycle with an event active,
/// each first quiet cycle after those (its begin_cycle retires the
/// events) and each later event start.
std::uint64_t consult_cycles(const fault::FaultSchedule& schedule,
                             std::uint64_t cycles) {
  std::uint64_t count = 0;
  std::uint64_t next = 0;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    if (c < next) continue;
    ++count;
    bool active = false;
    for (const fault::FaultEvent& event : schedule.events()) {
      active = active || event.active_at(c);
    }
    next = std::numeric_limits<std::uint64_t>::max();
    if (active) {
      next = c + 1;
      continue;
    }
    for (const fault::FaultEvent& event : schedule.events()) {
      if (event.start_cycle > c) {
        next = event.start_cycle;  // events are sorted by start
        break;
      }
    }
  }
  return count;
}

TEST(EnsembleSimd, FaultGroupCyclesFollowTheConsultRule) {
  // Random schedules on every 8th lane of 64: each armed vector group
  // holds exactly one armed lane on AVX-512 (8 lanes), on AVX2 and the
  // scalar pack (4 lanes) and on NEON (2 lanes), so a group leaves the
  // vector body exactly on its armed lane's consult cycles.
  constexpr std::size_t kLanes = 64;
  constexpr std::size_t kArmedEvery = 8;
  constexpr std::uint64_t kRunCycles = 20'000;
  const LoopConfig cfg = make_config(sensor::Quantization::kFloor,
                                     cdn::DelayQuantization::kRound, true);
  fault::RandomFaultSpec spec;
  spec.horizon_cycles = kRunCycles;
  std::vector<fault::FaultSchedule> schedules(kLanes);
  std::uint64_t expected = 0;
  for (std::size_t w = 0; w < kLanes; w += kArmedEvery) {
    schedules[w] = fault::FaultSchedule::random(7700 + w, spec);
    expected += consult_cycles(schedules[w], kRunCycles);
  }
  // Every run of one group pays for a width-1 cycle per consult, not per
  // cycle: well under 2 % of the 8 armed groups' 160,000 group-cycles.
  const std::uint64_t armed_group_cycles = kRunCycles * kLanes / kArmedEvery;
  ASSERT_LT(expected * 50, armed_group_cycles);

  const signal::SineWaveform wave{10.0, 1600.0};
  std::vector<double> mus(kLanes);
  for (std::size_t w = 0; w < kLanes; ++w) {
    mus[w] = -6.0 + 1.7 * static_cast<double>(w % 8);
  }
  const control::IirControlHardware prototype{control::paper_iir_config()};
  for (const simd::Backend backend : backends_under_test()) {
    SCOPED_TRACE(simd::to_string(backend));
    BackendOverrideGuard forced{backend};
    DiscardReducer reducer;

    auto faulted = EnsembleSimulator::uniform(cfg, &prototype, kLanes);
    faulted.attach_faults(schedules);
    faulted.run_homogeneous(wave, mus, kSetpoint, kRunCycles, reducer,
                            nullptr);
    ASSERT_EQ(faulted.isolated_count(), 0u);
    EXPECT_EQ(faulted.fault_group_cycles(), expected);
    faulted.reset();
    EXPECT_EQ(faulted.fault_group_cycles(), 0u);

    auto clean = EnsembleSimulator::uniform(cfg, &prototype, kLanes);
    clean.run_homogeneous(wave, mus, kSetpoint, kRunCycles / 10, reducer,
                          nullptr);
    EXPECT_EQ(clean.fault_group_cycles(), 0u);
  }
}

}  // namespace
}  // namespace roclk::core
