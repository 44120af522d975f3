#include "roclk/core/ensemble_simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "ensemble_simd_kernel.hpp"
#include "roclk/common/fixed_point.hpp"
#include "roclk/common/math.hpp"
#include "roclk/common/thread_pool.hpp"
#include "roclk/control/iir_control.hpp"

namespace roclk::core {

namespace {

/// Largest static magnitude (set-point, TDC range, length bound) for which
/// every int64<->double conversion in the vector kernel is provably exact:
/// with inputs bounded by 2^49, |delta| <= 2^50 stays inside the vector
/// backends' exact conversion window (|x| < 2^51, see simd::to_int_exact).
/// Configs beyond this run the scalar pack, whose conversions are casts.
constexpr double kSimdMaxMagnitude = 0x1p49;

/// Cycles per waveform tile of run_homogeneous: 4 KiB of samples, one per
/// cycle, shared by every lane of a chunk.  A chunk task holds its tile on
/// its stack while it runs, so a call's memory does not grow with its
/// cycles.
constexpr std::size_t kWaveTileCycles = 512;

}  // namespace

// --------------------------------------------------- LaneAccumulators

LaneAccumulators::LaneAccumulators(std::size_t lanes, std::size_t skip)
    : worst_delta(lanes, 0.0),
      mean(lanes, 0.0),
      count(lanes, 0.0),
      tau_min(lanes, std::numeric_limits<double>::infinity()),
      tau_max(lanes, -std::numeric_limits<double>::infinity()),
      violations(lanes, 0.0),
      seen(lanes, 0),
      skip{skip} {}

// ------------------------------------------------------- TraceReducer

TraceReducer::TraceReducer(std::size_t lanes, std::size_t reserve_cycles)
    : traces_(lanes) {
  if (reserve_cycles > 0) {
    for (SimulationTrace& trace : traces_) trace.reserve(reserve_cycles);
  }
}

void TraceReducer::accumulate(const LaneSlice& slice) {
  ROCLK_CHECK(slice.first_lane + slice.width <= traces_.size(),
                "lane slice out of range");
  for (std::size_t w = 0; w < slice.width; ++w) {
    StepRecord record;
    record.tau = slice.tau[w];
    record.delta = slice.delta[w];
    record.lro = slice.lro[w];
    record.t_gen = slice.t_gen[w];
    record.t_dlv = slice.t_dlv[w];
    record.violation = slice.violation[w] != 0;
    traces_[slice.first_lane + w].push(record);
  }
}

const SimulationTrace& TraceReducer::trace(std::size_t lane) const {
  return traces_.at(lane);
}

// -------------------------------------------------- EnsembleSimulator

Status EnsembleSimulator::validate(std::span<const LoopConfig> lane_configs,
                                   std::size_t controller_count) {
  if (lane_configs.empty()) {
    return Status::invalid_argument("ensemble needs at least one lane");
  }
  const LoopConfig& head = lane_configs.front();
  if (head.mode == GeneratorMode::kControlledRo) {
    if (controller_count != lane_configs.size()) {
      return Status::invalid_argument(
          "controlled ensemble needs one controller per lane");
    }
  } else if (controller_count != 0) {
    return Status::invalid_argument(
        "open-loop ensemble must not have controllers");
  }
  for (const LoopConfig& config : lane_configs) {
    if (config.mode != head.mode) {
      return Status::invalid_argument("lanes disagree on generator mode");
    }
    if (config.quantize_lro != head.quantize_lro) {
      return Status::invalid_argument(
          "lanes disagree on l_RO quantisation");
    }
    if (config.tdc_quantization != head.tdc_quantization) {
      return Status::invalid_argument(
          "lanes disagree on TDC quantisation");
    }
    if (config.cdn_quantization != head.cdn_quantization) {
      return Status::invalid_argument(
          "lanes disagree on CDN quantisation");
    }
    if (config.tdc_max_reading != head.tdc_max_reading) {
      // The kernel shares one Tdc across all lanes; a silently ignored
      // per-lane chain length would defeat the max_reading >= c contract.
      return Status::invalid_argument(
          "lanes disagree on TDC max_reading");
    }
    const Status status = LoopSimulator::validate(
        config, head.mode == GeneratorMode::kControlledRo);
    if (!status.is_ok()) return status;
  }
  return Status::ok();
}

EnsembleSimulator::EnsembleSimulator(
    std::vector<LoopConfig> lane_configs,
    std::vector<std::unique_ptr<control::ControlBlock>> controllers)
    : configs_{std::move(lane_configs)},
      controllers_{std::move(controllers)} {
  ROCLK_CHECK_OK(validate(configs_, controllers_.size()));
  for (const auto& controller : controllers_) {
    ROCLK_CHECK(controller != nullptr, "null controller");
  }

  mode_ = configs_.front().mode;
  quantize_lro_ = configs_.front().quantize_lro;
  cdn_quantization_ = configs_.front().cdn_quantization;
  tdc_ = sensor::Tdc{detail::tdc_config_for(configs_.front())};

  // Devirtualise the IIR hardware once per ensemble, the lane-parallel
  // analogue of run_batch's dynamic_cast hoist: when every lane runs an
  // IirControlHardware with one shared configuration, its power-of-two
  // gains are cached here and the per-lane integer state lives in the
  // chunk-strided bank instead of the virtual controllers.
  if (mode_ == GeneratorMode::kControlledRo && !controllers_.empty()) {
    iir_bank_active_ = true;
    const control::IirConfig* reference = nullptr;
    for (const auto& controller : controllers_) {
      const auto* iir =
          dynamic_cast<const control::IirControlHardware*>(controller.get());
      if (iir == nullptr) {
        iir_bank_active_ = false;
        break;
      }
      if (reference == nullptr) {
        reference = &iir->config();
      } else if (iir->config().taps != reference->taps ||
                 iir->config().k_exp != reference->k_exp ||
                 iir->config().k_star != reference->k_star ||
                 iir->config().anti_windup != reference->anti_windup) {
        iir_bank_active_ = false;
        break;
      }
    }
    if (iir_bank_active_) {
      // validate_iir_config holds k_exp >= 1 and k* = 1 / sum(taps) > 0,
      // so k_exp is a left shift and k* a shift either way, both unsigned.
      const PowerOfTwoGain k_exp =
          PowerOfTwoGain::from_value(reference->k_exp).value();
      const PowerOfTwoGain k_star =
          PowerOfTwoGain::from_value(reference->k_star).value();
      ROCLK_CHECK(k_exp.exponent() >= 0 && !k_exp.negative() &&
                      !k_star.negative(),
                  "IIR bank needs k_exp >= 1 and k* > 0");
      iir_k_exp_shift_ = k_exp.exponent();
      iir_k_star_exponent_ = k_star.exponent();
      // The taps, ordered into the kernel's four runs.
      const std::vector<double>& taps = reference->taps;
      iir_row_stride_ = std::min(kChunkLanes, configs_.size());
      iir_tap_shifts_.reserve(taps.size());
      const auto append_run = [&](bool left, bool negative) {
        for (std::size_t i = 0; i < taps.size(); ++i) {
          const PowerOfTwoGain gain =
              PowerOfTwoGain::from_value(taps[i]).value();
          const int e = gain.exponent();
          if ((e >= 0) == left && gain.negative() == negative) {
            iir_tap_shifts_.push_back(
                {static_cast<std::int32_t>(i * iir_row_stride_),
                 left ? e : -e});
          }
        }
        return iir_tap_shifts_.size();
      };
      iir_left_add_end_ = append_run(true, false);
      iir_left_sub_end_ = append_run(true, true);
      iir_right_add_end_ = append_run(false, false);
      (void)append_run(false, true);
      iir_k_exp_ = reference->k_exp;
      if (reference->anti_windup.has_value()) {
        // Mirror of IirControlHardware's pre-resolved anti-windup clamp.
        iir_aw_enabled_ = true;
        iir_aw_min_ = static_cast<std::int64_t>(
            llround_ties_away(reference->anti_windup->min_output));
        iir_aw_max_ = static_cast<std::int64_t>(
            llround_ties_away(reference->anti_windup->max_output));
      }
    }
  }

  const std::size_t total = configs_.size();
  chunks_.reserve((total + kChunkLanes - 1) / kChunkLanes);
  for (std::size_t first = 0; first < total; first += kChunkLanes) {
    const std::size_t cw = std::min(kChunkLanes, total - first);
    Chunk chunk;
    chunk.first = first;
    chunk.width = cw;
    chunk.prev_lro.resize(cw);
    chunk.prev_t_dlv.resize(cw);
    chunk.prev_e_ro.resize(cw);
    chunk.prev_e_local.resize(cw);
    chunk.setpoint.resize(cw);
    chunk.open_loop.resize(cw);
    chunk.min_len.resize(cw);
    chunk.max_len.resize(cw);
    chunk.min_len_d.resize(cw);
    chunk.max_len_d.resize(cw);
    chunk.cdn_delay.resize(cw);
    chunk.cdn_history_d.resize(cw);
    chunk.cdn_history.resize(cw);
    chunk.cdn_initial.resize(cw);
    chunk.tau.resize(cw);
    chunk.delta.resize(cw);
    chunk.lro.resize(cw);
    chunk.t_gen.resize(cw);
    chunk.t_dlv.resize(cw);
    chunk.violation.resize(cw);

    std::size_t max_history = 2;
    for (std::size_t w = 0; w < cw; ++w) {
      const LoopConfig& config = configs_[first + w];
      chunk.integral_setpoints = chunk.integral_setpoints &&
                                 config.setpoint_c ==
                                     std::trunc(config.setpoint_c);
      chunk.setpoint[w] = config.setpoint_c;
      chunk.open_loop[w] =
          config.open_loop_period.value_or(config.setpoint_c);
      chunk.min_len[w] = config.min_length;
      chunk.max_len[w] = config.max_length;
      chunk.min_len_d[w] = static_cast<double>(config.min_length);
      chunk.max_len_d[w] = static_cast<double>(config.max_length);
      const std::size_t history = detail::cdn_history_for(config);
      chunk.cdn_delay[w] = config.cdn_delay_stages;
      chunk.cdn_history[w] = static_cast<std::int64_t>(history);
      chunk.cdn_history_d[w] = static_cast<double>(history - 2);
      max_history = std::max(max_history, history);
    }
    chunk.ring_slots = std::bit_ceil(max_history);
    // Mask indexing into the interleaved ring is only sound on a
    // power-of-two slot count; bit_ceil guarantees it, the check keeps the
    // invariant explicit if the sizing logic ever changes.
    ROCLK_DCHECK(is_power_of_two(chunk.ring_slots),
                 "interleaved CDN ring slots must be a power of two, got "
                     << chunk.ring_slots);
    chunk.slot_mask = chunk.ring_slots - 1;
    // The kernel's ring index is (slot << row_shift) + lane: with a
    // power-of-two row stride >= cw it stays inside the ring for every
    // masked slot and every lane.
    chunk.row_shift = std::countr_zero(std::bit_ceil(cw));
    chunk.ring.assign(chunk.ring_slots << chunk.row_shift, 0.0);
    if (iir_bank_active_) {
      chunk.iir_state.assign(2 * iir_tap_shifts_.size() * iir_row_stride_,
                             0);
      chunk.iir_prev_input.assign(cw, 0);
    }
    chunks_.push_back(std::move(chunk));
  }

  // The CDN look-back distance m lies in [0, history - 2], so a bounded
  // history keeps its conversion exact too.
  simd_domain_ok_ =
      static_cast<double>(tdc_.config().max_reading) <= kSimdMaxMagnitude;
  for (const LoopConfig& config : configs_) {
    simd_domain_ok_ =
        simd_domain_ok_ &&
        std::abs(config.setpoint_c) <= kSimdMaxMagnitude &&
        std::abs(static_cast<double>(config.min_length)) <=
            kSimdMaxMagnitude &&
        std::abs(static_cast<double>(config.max_length)) <=
            kSimdMaxMagnitude &&
        static_cast<double>(detail::cdn_history_for(config)) <=
            kSimdMaxMagnitude;
  }

  reset();
}

EnsembleSimulator EnsembleSimulator::uniform(
    const LoopConfig& config, const control::ControlBlock* prototype,
    std::size_t width) {
  ROCLK_CHECK(width > 0, "ensemble needs at least one lane");
  std::vector<LoopConfig> configs(width, config);
  std::vector<std::unique_ptr<control::ControlBlock>> controllers;
  if (config.mode == GeneratorMode::kControlledRo) {
    ROCLK_CHECK(prototype != nullptr,
                  "controlled ensemble needs a controller prototype");
    controllers.reserve(width);
    for (std::size_t w = 0; w < width; ++w) {
      controllers.push_back(prototype->clone());
    }
  }
  return EnsembleSimulator{std::move(configs), std::move(controllers)};
}

void EnsembleSimulator::reset() {
  for (Chunk& chunk : chunks_) {
    const std::size_t cw = chunk.width;
    chunk.pushes = 0;
    for (std::size_t w = 0; w < cw; ++w) {
      const LoopConfig& config = configs_[chunk.first + w];
      const double equilibrium = detail::equilibrium_for(config);
      chunk.prev_lro[w] = equilibrium;
      chunk.prev_t_dlv[w] = equilibrium;
      chunk.prev_e_ro[w] = 0.0;
      chunk.prev_e_local[w] = 0.0;
      chunk.cdn_initial[w] = equilibrium;
      for (std::size_t s = 0; s < chunk.ring_slots; ++s) {
        chunk.ring[(s << chunk.row_shift) + w] = equilibrium;
      }
      if (iir_bank_active_) {
        // IirControlHardware::reset: W = round(initial_output * k_exp) in
        // every tap register, previous input cleared.
        const auto w0 = static_cast<std::int64_t>(
            llround_ties_away(equilibrium * iir_k_exp_));
        for (std::size_t row = 0; row < 2 * iir_tap_shifts_.size(); ++row) {
          chunk.iir_state[row * iir_row_stride_ + w] = w0;
        }
        chunk.iir_prev_input[w] = 0;
      }
    }
    chunk.iir_head = 0;
    for (fault::FaultInjector& injector : chunk.injectors) injector.reset();
    std::fill(chunk.isolated.begin(), chunk.isolated.end(),
              std::uint8_t{0});
    std::fill(chunk.next_consult.begin(), chunk.next_consult.end(),
              std::uint64_t{0});
    chunk.fault_group_cycles = 0;
  }
  for (std::size_t lane = 0; lane < controllers_.size(); ++lane) {
    controllers_[lane]->reset(detail::equilibrium_for(configs_[lane]));
  }
}

void EnsembleSimulator::attach_faults(
    std::vector<fault::FaultSchedule> schedules) {
  ROCLK_CHECK(schedules.size() == width(),
              "need one fault schedule per lane (empty = fault-free), got "
                  << schedules.size() << " for " << width() << " lanes");
  faults_active_ = true;
  for (Chunk& chunk : chunks_) {
    chunk.injectors.clear();
    chunk.injectors.reserve(chunk.width);
    chunk.armed = 0;
    for (std::size_t w = 0; w < chunk.width; ++w) {
      const fault::FaultSchedule& schedule = schedules[chunk.first + w];
      if (!schedule.empty()) chunk.armed |= std::uint64_t{1} << w;
      chunk.injectors.emplace_back(schedule);
    }
    chunk.isolated.assign(chunk.width, 0);
    chunk.next_consult.assign(chunk.width, 0);
  }
}

std::uint64_t EnsembleSimulator::fault_group_cycles() const {
  std::uint64_t cycles = 0;
  for (const Chunk& chunk : chunks_) cycles += chunk.fault_group_cycles;
  return cycles;
}

bool EnsembleSimulator::isolated(std::size_t lane) const {
  ROCLK_CHECK(lane < width(), "lane out of range");
  if (!faults_active_) return false;
  const Chunk& chunk = chunks_[lane / kChunkLanes];
  return chunk.isolated[lane - chunk.first] != 0;
}

std::size_t EnsembleSimulator::isolated_count() const {
  std::size_t count = 0;
  for (const Chunk& chunk : chunks_) {
    for (std::uint8_t flag : chunk.isolated) count += flag != 0 ? 1 : 0;
  }
  return count;
}

void EnsembleSimulator::run_one_chunk(Chunk& chunk,
                                      detail::SimdChunkArgs args,
                                      StreamingReducer& reducer,
                                      simd::Backend backend) {
  args.first = chunk.first;
  args.cw = chunk.width;
  args.prev_lro = chunk.prev_lro.data();
  args.prev_t_dlv = chunk.prev_t_dlv.data();
  args.prev_e_ro = chunk.prev_e_ro.data();
  args.prev_e_local = chunk.prev_e_local.data();
  args.setpoint = chunk.setpoint.data();
  args.open_loop = chunk.open_loop.data();
  args.min_len = chunk.min_len.data();
  args.max_len = chunk.max_len.data();
  args.min_len_d = chunk.min_len_d.data();
  args.max_len_d = chunk.max_len_d.data();
  args.ring = chunk.ring.data();
  args.slot_mask = chunk.slot_mask;
  args.row_shift = chunk.row_shift;
  args.cdn_delay = chunk.cdn_delay.data();
  args.cdn_history_d = chunk.cdn_history_d.data();
  args.cdn_history = chunk.cdn_history.data();
  args.cdn_initial = chunk.cdn_initial.data();
  args.pushes = &chunk.pushes;
  args.out_tau = chunk.tau.data();
  args.out_delta = chunk.delta.data();
  args.out_lro = chunk.lro.data();
  args.out_t_gen = chunk.t_gen.data();
  args.out_t_dlv = chunk.t_dlv.data();
  args.out_violation = chunk.violation.data();
  args.fixed_clock = mode_ == GeneratorMode::kFixedClock;
  args.quantize_lro = quantize_lro_;
  args.tdc_q = tdc_.config().quantization;
  args.cdn_q = cdn_quantization_;
  args.tdc_mismatch = tdc_.config().mismatch_stages;
  args.tdc_max = static_cast<double>(tdc_.config().max_reading);
  if (mode_ != GeneratorMode::kControlledRo) {
    args.control = detail::ControlKind::kOpenLoop;
  } else if (iir_bank_active_) {
    args.control = detail::ControlKind::kIirBank;
    args.iir.tap_shifts = iir_tap_shifts_.data();
    args.iir.left_add_end = iir_left_add_end_;
    args.iir.left_sub_end = iir_left_sub_end_;
    args.iir.right_add_end = iir_right_add_end_;
    args.iir.taps = iir_tap_shifts_.size();
    args.iir.row_stride = iir_row_stride_;
    args.iir.k_exp_shift = iir_k_exp_shift_;
    args.iir.k_star_exponent = iir_k_star_exponent_;
    args.iir.prev_input = chunk.iir_prev_input.data();
    args.iir.bank = chunk.iir_state.data();
    args.iir.head = &chunk.iir_head;
    // delta = setpoint - tau is exactly integral when the set-points are
    // integers and the TDC floors or rounds (tau and the clamp bounds are
    // then integral), so the bank input needs no rounding.  A fault cycle
    // voids the deduction: a stuck or glitched reading carries an
    // arbitrary real magnitude past the quantizer, so the kernel's
    // every-site body keeps the ties-away rounding of the scalar
    // controller.
    args.iir.integral_input =
        chunk.integral_setpoints &&
        tdc_.config().quantization != sensor::Quantization::kNone;
    args.iir.aw_enabled = iir_aw_enabled_;
    args.iir.aw_min = iir_aw_min_;
    args.iir.aw_max = iir_aw_max_;
  } else {
    args.control = detail::ControlKind::kVirtual;
    args.controllers = controllers_.data() + chunk.first;
  }
  args.reducer = &reducer;
  if (LaneAccumulators* acc = reducer.accumulators()) {
    ROCLK_CHECK(chunk.first + chunk.width <= acc->lanes(),
                "accumulators hold " << acc->lanes() << " lanes, the chunk "
                                     << "ends at lane "
                                     << chunk.first + chunk.width);
    std::size_t* const seen = acc->seen.data() + chunk.first;
    ROCLK_CHECK(std::all_of(seen, seen + chunk.width,
                            [&](std::size_t n) { return n == seen[0]; }),
                "the lanes of a chunk have seen different cycle counts");
    args.fold.worst_delta = acc->worst_delta.data() + chunk.first;
    args.fold.mean = acc->mean.data() + chunk.first;
    args.fold.count = acc->count.data() + chunk.first;
    args.fold.tau_min = acc->tau_min.data() + chunk.first;
    args.fold.tau_max = acc->tau_max.data() + chunk.first;
    args.fold.violations = acc->violations.data() + chunk.first;
    args.fold.seen = seen;
    args.fold.skip = acc->skip;
  }
  if (faults_active_) {
    args.injectors = chunk.injectors.data();
    args.armed = chunk.armed;
    args.isolated = chunk.isolated.data();
    args.next_consult = chunk.next_consult.data();
  }
  args.fault_group_cycles = &chunk.fault_group_cycles;

  if (!simd_domain_ok_) backend = simd::Backend::kScalar;
  switch (backend) {
    case simd::Backend::kAvx2:
#ifdef ROCLK_SIMD_HAVE_AVX2
      detail::run_chunk_simd_avx2(args);
      return;
#else
      break;
#endif
    case simd::Backend::kAvx512:
#ifdef ROCLK_SIMD_HAVE_AVX512
      detail::run_chunk_simd_avx512(args);
      return;
#else
      break;
#endif
    case simd::Backend::kNeon:
#ifdef ROCLK_SIMD_HAVE_NEON
      detail::run_chunk_simd_neon(args);
      return;
#else
      break;
#endif
    case simd::Backend::kScalar:
      break;
  }
  detail::run_chunk_simd_scalar(args);
}

template <class Task>
void EnsembleSimulator::for_each_chunk(ThreadPool* pool, const Task& task) {
  if (pool == nullptr || pool->size() <= 1 || chunks_.size() <= 1) {
    for (Chunk& chunk : chunks_) task(chunk);
    return;
  }
  parallel_for(*pool, chunks_.size(),
               [&](std::size_t i) { task(chunks_[i]); });
}

void EnsembleSimulator::run(const EnsembleInputBlock& block,
                            StreamingReducer& reducer, ThreadPool* pool) {
  ROCLK_CHECK(block.width == width(),
              "input block has " << block.width << " lanes but the ensemble "
                                 << width());
  if (block.empty()) return;
  const std::size_t samples = block.width * block.cycles;
  ROCLK_CHECK(block.e_ro.size() == samples &&
                  block.e_tdc.size() == samples &&
                  block.mu.size() == samples,
              "ragged ensemble block: expected "
                  << samples << " samples per signal, got e_ro="
                  << block.e_ro.size() << ", e_tdc=" << block.e_tdc.size()
                  << ", mu=" << block.mu.size());
  // Resolved once per run: every chunk of one call uses one backend.
  const simd::Backend backend = simd::active_backend();
  for_each_chunk(pool, [&](Chunk& chunk) {
    detail::SimdChunkArgs args;
    args.cycles = block.cycles;
    args.column = chunk.first;
    args.stride = block.width;
    args.e_ro = block.e_ro.data();
    args.e_tdc = block.e_tdc.data();
    args.mu = block.mu.data();
    run_one_chunk(chunk, args, reducer, backend);
  });
}

void EnsembleSimulator::run_homogeneous(
    const signal::Waveform& waveform,
    std::span<const double> static_mu_stages, double dt, std::size_t cycles,
    StreamingReducer& reducer, ThreadPool* pool) {
  ROCLK_CHECK(static_mu_stages.size() == width(),
              "one mu per lane: got " << static_mu_stages.size() << " for "
                                      << width() << " lanes");
  ROCLK_CHECK(dt > 0.0, "sampling period must be positive, got " << dt);
  if (cycles == 0) return;
  const simd::Backend backend = simd::active_backend();
  for_each_chunk(pool, [&](Chunk& chunk) {
    // Sample k of a tile is the waveform at (start + k) * dt: the value
    // sample_homogeneous_ensemble's block holds in every lane's e_ro and
    // e_tdc at cycle start + k, whatever the tile length.
    std::array<double, kWaveTileCycles> wave{};
    detail::SimdChunkArgs args;
    args.wave = wave.data();
    args.lane_mu = static_mu_stages.data() + chunk.first;
    for (std::size_t start = 0; start < cycles; start += kWaveTileCycles) {
      args.cycles = std::min(kWaveTileCycles, cycles - start);
      args.first_cycle = start;
      for (std::size_t k = 0; k < args.cycles; ++k) {
        wave[k] = waveform.at(static_cast<double>(start + k) * dt);
      }
      run_one_chunk(chunk, args, reducer, backend);
    }
  });
}

}  // namespace roclk::core
