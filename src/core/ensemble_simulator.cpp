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

/// Cycles per segment of run_homogeneous: the calling thread samples a
/// segment once, 64 KiB of samples on its stack, and every chunk runs over
/// it.  A pooled call pays one fork/join per segment, so longer segments
/// mean fewer of them but a larger stack frame; memory does not grow with
/// the call's cycles.
constexpr std::size_t kSegmentCycles = 8192;

}  // namespace

// --------------------------------------------------- LaneAccumulators

LaneAccumulators::LaneAccumulators(std::size_t lanes, std::size_t skip)
    : skip{skip}, lanes_{lanes}, block_{[&](auto&& bind) {
        bind(worst_delta, lanes);
        bind(mean, lanes);
        bind(count, lanes);
        bind(tau_min, lanes);
        bind(tau_max, lanes);
        bind(violations, lanes);
        bind(seen, lanes);
      }} {
  std::fill_n(tau_min, lanes, std::numeric_limits<double>::infinity());
  std::fill_n(tau_max, lanes, -std::numeric_limits<double>::infinity());
}

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
                                   const control::ControlBlock* controller) {
  if (lane_configs.empty()) {
    return Status::invalid_argument("ensemble needs at least one lane");
  }
  const LoopConfig& head = lane_configs.front();
  const bool controlled = head.mode == GeneratorMode::kControlledRo;
  if (!controlled && controller != nullptr) {
    return Status::invalid_argument(
        "open-loop ensemble must not have a controller");
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
      // The kernel shares one TDC across all lanes; a silently ignored
      // per-lane chain length would defeat the max_reading >= c contract.
      return Status::invalid_argument(
          "lanes disagree on TDC max_reading");
    }
    const Status status =
        LoopSimulator::validate(config, controller != nullptr);
    if (!status.is_ok()) return status;
  }
  return Status::ok();
}

EnsembleSimulator::EnsembleSimulator(std::vector<LoopConfig> lane_configs,
                                     const control::ControlBlock* controller)
    : configs_{std::move(lane_configs)} {
  ROCLK_CHECK_OK(validate(configs_, controller));
  const LoopConfig& head = configs_.front();
  const sensor::Tdc tdc{detail::tdc_config_for(head)};
  consts_.fixed_clock = head.mode == GeneratorMode::kFixedClock;
  consts_.quantize_lro = head.quantize_lro;
  consts_.tdc_q = tdc.config().quantization;
  consts_.cdn_q = head.cdn_quantization;
  consts_.tdc_mismatch = tdc.config().mismatch_stages;
  consts_.tdc_max = static_cast<double>(tdc.config().max_reading);
  const std::size_t total = configs_.size();
  consts_.row_stride = std::min(kChunkLanes, total);

  // Devirtualise an IIR controller once per ensemble, the lane-parallel
  // analogue of run_batch's dynamic_cast hoist: its power-of-two gains
  // become shift counts here and the per-lane integer state lives in the
  // chunk-strided bank.  Any other controller is cloned per lane.
  if (const auto* iir =
          dynamic_cast<const control::IirControlHardware*>(controller)) {
    const control::IirConfig& config = iir->config();
    consts_.control = detail::ControlKind::kIirBank;
    // validate_iir_config holds k_exp >= 1 and k* = 1 / sum(taps) > 0,
    // so k_exp is a left shift and k* a shift either way, both unsigned.
    const PowerOfTwoGain k_exp =
        PowerOfTwoGain::from_value(config.k_exp).value();
    const PowerOfTwoGain k_star =
        PowerOfTwoGain::from_value(config.k_star).value();
    ROCLK_CHECK(k_exp.exponent() >= 0 && !k_exp.negative() &&
                    !k_star.negative(),
                "IIR bank needs k_exp >= 1 and k* > 0");
    consts_.k_exp_shift = k_exp.exponent();
    consts_.k_star_exponent = k_star.exponent();
    // The taps, ordered into the kernel's four runs.
    const std::vector<double>& taps = config.taps;
    tap_shifts_.reserve(taps.size());
    const auto append_run = [&](bool left, bool negative) {
      for (std::size_t i = 0; i < taps.size(); ++i) {
        const PowerOfTwoGain gain =
            PowerOfTwoGain::from_value(taps[i]).value();
        const int e = gain.exponent();
        if ((e >= 0) == left && gain.negative() == negative) {
          tap_shifts_.push_back(
              {static_cast<std::int64_t>(i * consts_.row_stride),
               left ? e : -e});
        }
      }
      return tap_shifts_.size();
    };
    consts_.left_add_end = append_run(true, false);
    consts_.left_sub_end = append_run(true, true);
    consts_.right_add_end = append_run(false, false);
    consts_.taps = append_run(false, true);
    consts_.tap_shifts = tap_shifts_.data();
    if (config.anti_windup.has_value()) {
      // Mirror of IirControlHardware's pre-resolved anti-windup clamp.
      consts_.aw_enabled = true;
      consts_.aw_min = static_cast<std::int64_t>(
          llround_ties_away(config.anti_windup->min_output));
      consts_.aw_max = static_cast<std::int64_t>(
          llround_ties_away(config.anti_windup->max_output));
    }
  } else if (controller != nullptr) {
    consts_.control = detail::ControlKind::kVirtual;
    controllers_.reserve(total);
    for (std::size_t w = 0; w < total; ++w) {
      controllers_.push_back(controller->clone());
    }
    consts_.controllers = controllers_.data();
  }

  const std::size_t bank_entries = 2 * consts_.taps * consts_.row_stride;
  chunks_.reserve((total + kChunkLanes - 1) / kChunkLanes);
  for (std::size_t first = 0; first < total; first += kChunkLanes) {
    Chunk& chunk = chunks_.emplace_back();
    detail::ChunkLanes& lanes = chunk.lanes;
    lanes.first = first;
    lanes.width = std::min(kChunkLanes, total - first);
    std::size_t max_history = 2;
    for (std::size_t w = 0; w < lanes.width; ++w) {
      max_history =
          std::max(max_history, detail::cdn_history_for(configs_[first + w]));
    }
    lanes.ring_slots = std::bit_ceil(max_history);
    // Mask indexing into the interleaved ring is only sound on a
    // power-of-two slot count; bit_ceil guarantees it, the check keeps the
    // invariant explicit if the sizing logic ever changes.
    ROCLK_DCHECK(is_power_of_two(lanes.ring_slots),
                 "interleaved CDN ring slots must be a power of two, got "
                     << lanes.ring_slots);
    lanes.slot_mask = lanes.ring_slots - 1;
    // The kernel's ring index is (slot << row_shift) + lane: with a
    // power-of-two row stride >= width it stays inside the ring for every
    // masked slot and every lane.
    lanes.row_shift = std::countr_zero(std::bit_ceil(lanes.width));
    chunk.block = simd::LaneBlock{[&](auto&& bind) {
      lanes.bind_arrays(bind, bank_entries);
    }};

    bool integral_setpoints = true;
    for (std::size_t w = 0; w < lanes.width; ++w) {
      const LoopConfig& config = configs_[first + w];
      integral_setpoints = integral_setpoints &&
                           config.setpoint_c == std::trunc(config.setpoint_c);
      lanes.setpoint[w] = config.setpoint_c;
      lanes.open_loop[w] =
          config.open_loop_period.value_or(config.setpoint_c);
      lanes.min_len[w] = config.min_length;
      lanes.max_len[w] = config.max_length;
      lanes.min_len_d[w] = static_cast<double>(config.min_length);
      lanes.max_len_d[w] = static_cast<double>(config.max_length);
      const std::size_t history = detail::cdn_history_for(config);
      lanes.cdn_delay[w] = config.cdn_delay_stages;
      lanes.cdn_history[w] = static_cast<std::int64_t>(history);
      lanes.cdn_history_d[w] = static_cast<double>(history - 2);
    }
    lanes.integral_input =
        integral_setpoints && consts_.tdc_q != sensor::Quantization::kNone;
  }

  // The CDN look-back distance m lies in [0, history - 2], so a bounded
  // history keeps its conversion exact too.
  simd_domain_ok_ = consts_.tdc_max <= kSimdMaxMagnitude;
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
  return EnsembleSimulator{std::vector<LoopConfig>(width, config), prototype};
}

void EnsembleSimulator::reset() {
  // IirControlHardware::reset: W = round(initial_output * k_exp) in every
  // tap register, previous input cleared.
  const double k_exp = std::ldexp(1.0, consts_.k_exp_shift);
  for (Chunk& chunk : chunks_) {
    detail::ChunkLanes& lanes = chunk.lanes;
    lanes.pushes = 0;
    for (std::size_t w = 0; w < lanes.width; ++w) {
      const double equilibrium =
          detail::equilibrium_for(configs_[lanes.first + w]);
      lanes.prev_lro[w] = equilibrium;
      lanes.prev_t_dlv[w] = equilibrium;
      lanes.prev_e_ro[w] = 0.0;
      lanes.prev_e_local[w] = 0.0;
      lanes.cdn_initial[w] = equilibrium;
      for (std::size_t s = 0; s < lanes.ring_slots; ++s) {
        lanes.ring[(s << lanes.row_shift) + w] = equilibrium;
      }
      const auto w0 =
          static_cast<std::int64_t>(llround_ties_away(equilibrium * k_exp));
      for (std::size_t row = 0; row < 2 * consts_.taps; ++row) {
        lanes.iir_bank[row * consts_.row_stride + w] = w0;
      }
      lanes.iir_prev_input[w] = 0;
      lanes.isolated[w] = 0;
      lanes.next_consult[w] = 0;
    }
    lanes.iir_head = 0;
    lanes.fault_group_cycles = 0;
    for (fault::FaultInjector& injector : chunk.injectors) injector.reset();
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
    detail::ChunkLanes& lanes = chunk.lanes;
    chunk.injectors.clear();
    chunk.injectors.reserve(lanes.width);
    lanes.armed = 0;
    for (std::size_t w = 0; w < lanes.width; ++w) {
      const fault::FaultSchedule& schedule = schedules[lanes.first + w];
      if (!schedule.empty()) lanes.armed |= std::uint64_t{1} << w;
      chunk.injectors.emplace_back(schedule);
      lanes.isolated[w] = 0;
      lanes.next_consult[w] = 0;
    }
    lanes.injectors = chunk.injectors.data();
  }
}

std::uint64_t EnsembleSimulator::fault_group_cycles() const {
  std::uint64_t cycles = 0;
  for (const Chunk& chunk : chunks_) cycles += chunk.lanes.fault_group_cycles;
  return cycles;
}

bool EnsembleSimulator::isolated(std::size_t lane) const {
  ROCLK_CHECK(lane < width(), "lane out of range");
  return chunks_[lane / kChunkLanes].lanes.isolated[lane % kChunkLanes] != 0;
}

std::size_t EnsembleSimulator::isolated_count() const {
  std::size_t count = 0;
  for (const Chunk& chunk : chunks_) {
    count += static_cast<std::size_t>(
        std::count_if(chunk.lanes.isolated,
                      chunk.lanes.isolated + chunk.lanes.width,
                      [](std::uint8_t flag) { return flag != 0; }));
  }
  return count;
}

void EnsembleSimulator::run_one_chunk(Chunk& chunk,
                                      detail::SimdChunkArgs args,
                                      StreamingReducer& reducer,
                                      simd::Backend backend) {
  args.consts = &consts_;
  args.chunk = &chunk.lanes;
  args.reducer = &reducer;
  args.acc = reducer.accumulators();
  if (args.acc != nullptr) {
    const std::size_t first = chunk.lanes.first;
    const std::size_t end = first + chunk.lanes.width;
    ROCLK_CHECK(end <= args.acc->lanes(),
                "accumulators hold " << args.acc->lanes()
                                     << " lanes, the chunk ends at lane "
                                     << end);
    const std::size_t* const seen = args.acc->seen;
    ROCLK_CHECK(std::all_of(seen + first, seen + end,
                            [&](std::size_t n) { return n == seen[first]; }),
                "the lanes of a chunk have seen different cycle counts");
  }

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

void EnsembleSimulator::run(const InputBlock& block,
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
    args.column = chunk.lanes.first;
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
  // Sample k of a segment is the waveform at (start + k) * dt: the value
  // every lane's SimulationInputs::homogeneous(waveform, mu) samples into
  // e_ro and e_tdc at cycle start + k, whatever the segment length.
  std::array<double, kSegmentCycles> wave;
  detail::SimdChunkArgs args;
  args.wave = wave.data();
  for (std::size_t start = 0; start < cycles; start += kSegmentCycles) {
    args.cycles = std::min(kSegmentCycles, cycles - start);
    args.first_cycle = start;
    for (std::size_t k = 0; k < args.cycles; ++k) {
      wave[k] = waveform.at(static_cast<double>(start + k) * dt);
    }
    for_each_chunk(pool, [&](Chunk& chunk) {
      detail::SimdChunkArgs chunk_args = args;
      chunk_args.lane_mu = static_mu_stages.data() + chunk.lanes.first;
      run_one_chunk(chunk, chunk_args, reducer, backend);
    });
  }
}

}  // namespace roclk::core
