// The per-chunk ensemble kernel, templated over a SIMD backend.
//
// This internal header is instantiated once per compiled backend
// (ensemble_kernel_{scalar,avx2,avx512,neon}.cpp) and is EnsembleSimulator's
// only per-chunk kernel.  One templated cycle body covers every ensemble,
// at every vector width (8 lanes on AVX-512, 4 on AVX2 and the scalar
// pack, 2 on NEON, 1 for tails and fault cycles).  It reads its inputs in
// one of two forms: a lane-interleaved block (per-lane e_ro, e_tdc and mu
// every cycle), or the homogeneous form of run_homogeneous (one waveform
// sample per cycle, broadcast to every lane, plus a constant mu per lane).
// The route is chosen from what the ensemble holds, never from an option:
//  * the controller kind (ControlKind): open loop, the devirtualized IIR
//    bank on lane vectors, or virtual ControlBlocks stepped one lane at a
//    time over the extracted lane values;
//  * the fault schedules: a vector group holding a lane whose schedule has
//    events (an armed lane) stays on vectors, with step_impl's isolation
//    test compiled in for its armed lanes, on every cycle where none of
//    them is isolated or due a fault consult.  On those fault cycles it
//    runs lane by lane through the width-1 body, with every fault site
//    compiled in for the armed lanes.  Groups without armed lanes never
//    leave the vector body;
//  * the config magnitudes: a config outside the exact-conversion domain
//    (see kSimdMaxMagnitude in ensemble_simulator.cpp) runs the
//    ScalarTraits instantiation, whose conversions are plain casts.
//
// Bit-exactness argument (gated by tests/core/test_ensemble_simd):
//  * Lanes are arithmetically independent; vectorizing ACROSS lanes only
//    changes which instruction computes a lane, never its operand values.
//  * Every floating-point step is the same IEEE-754 operation, in the same
//    order, as LoopSimulator::step_impl (correctly-rounded add/sub/mul/div,
//    directed-rounding floor/trunc).  min/max/clamp are composed from
//    cmp+select in the exact std::min/std::max/std::clamp selection order,
//    so -0.0 and equal-value selections match bitwise.  No FMA contraction
//    is ever emitted (plain intrinsics; -ffp-contract=off project-wide).
//  * Integer IIR-bank steps are exact by definition; the AVX2 arithmetic
//    right shift is rebuilt from logical shift + sign fill (AVX-512 and
//    NEON have it natively).
//  * double->int64 casts use each backend's exact conversion, valid for
//    the guarded magnitude domain (< 2^51); ScalarTraits uses plain casts,
//    exact at any magnitude (llround_ties_away is the same cast), and the
//    AVX-512 and NEON converts match them wherever they are defined.  The
//    homogeneous form broadcasts the very double the block form would hold
//    in every lane's e_ro and e_tdc, and loads the same mu.  The CDN
//    look-back computes its distance m and ring index as lane vectors and
//    reads the ring with a gather: the same m, the same slot and the same
//    boundary rule as QuantizedTimeCdn, so the same value.  Only the
//    virtual controllers run scalar, on extracted lane values.
//  * Lane widths not divisible by the vector width, and groups on a fault
//    cycle, run the SAME templated cycle body instantiated at width 1
//    (ScalarTraits<1>) — one source of truth for every lane.  A quiet
//    cycle needs no fault site but the isolation test: no event is
//    active, so begin_cycle would report nothing, and skipped cycles are
//    caught up in schedule order by the next begin_cycle.
//  * A reducer with LaneAccumulators gets the figures of merit folded in
//    the cycle body, on the lane vectors, instead of a staged slice: each
//    fold step is RunningStats::add's or evaluate_run's operation (a
//    std::min/std::max as cmp+select in its selection order, the Welford
//    mean with the count as an exact double), so a lane's accumulators
//    hold what evaluate_run computes from its trace.  The fold is a
//    runtime test of the hook, not a template axis.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "roclk/cdn/cdn.hpp"
#include "roclk/common/check.hpp"
#include "roclk/common/fixed_point.hpp"
#include "roclk/common/simd.hpp"
#include "roclk/control/control_block.hpp"
#include "roclk/core/ensemble_simulator.hpp"
#include "roclk/fault/injector.hpp"
#include "roclk/sensor/tdc.hpp"

namespace roclk::core::detail {

/// How a chunk's lanes turn delta into l_RO.
enum class ControlKind {
  kOpenLoop,  // free-running RO or fixed clock: the lane's open-loop period
  kIirBank,   // the devirtualized integer IIR bank, on lane vectors
  kVirtual,   // one ControlBlock per lane, stepped on extracted lane values
};

/// Which of step_impl's fault sites a cycle body compiles in.
enum class FaultSites {
  kNone,       // a group without armed lanes
  kIsolation,  // a group with armed lanes on a quiet cycle: the isolation
               // test, on its armed lanes
  kAll,        // one armed lane (width 1): every site
};

/// Devirtualized IIR bank parameters for the vector kernel (mirrors
/// EnsembleSimulator's cached IirControlHardware configuration).
struct SimdIirArgs {
  const PowerOfTwoGain* tap_gains{nullptr};
  std::size_t taps{0};
  PowerOfTwoGain k_exp_gain;
  PowerOfTwoGain k_star_gain;
  std::int64_t* prev_input{nullptr};
  std::int64_t* bank{nullptr};  // [tap * cw + w]
  std::size_t* head{nullptr};   // in/out: physical row holding W[n-1]
  bool integral_input{false};
  bool aw_enabled{false};
  std::int64_t aw_min{0};
  std::int64_t aw_max{0};
};

/// A reducer's LaneAccumulators as one chunk sees them: each array from
/// the chunk's first lane on.  `mean == nullptr` means the reducer takes
/// slices instead.
struct SimdFoldArgs {
  double* worst_delta{nullptr};
  double* mean{nullptr};
  double* count{nullptr};
  double* tau_min{nullptr};
  double* tau_max{nullptr};
  double* violations{nullptr};
  std::size_t* seen{nullptr};
  std::size_t skip{0};
};

/// Raw-pointer view of one chunk plus the ensemble-level constants the
/// kernel needs; assembled by EnsembleSimulator::run_one_chunk.
struct SimdChunkArgs {
  // Geometry.
  std::size_t first{0};        // chunk's first lane (slice labelling)
  std::size_t cw{0};           // chunk width
  std::size_t cycles{0};       // cycles to run
  std::size_t first_cycle{0};  // LaneSlice::cycle of the first cycle run

  // Inputs, in one of two forms.  Block form (wave == nullptr): sample k
  // of chunk lane w sits at [k * stride + column + w] of the cycle-major,
  // lane-interleaved e_ro / e_tdc / mu arrays; a whole-ensemble block has
  // column = first and stride = its width.  Homogeneous form: every lane
  // sees wave[k] on both e_ro and e_tdc in cycle k, and chunk lane w its
  // constant lane_mu[w].
  std::size_t column{0};
  std::size_t stride{0};
  const double* e_ro{nullptr};
  const double* e_tdc{nullptr};
  const double* mu{nullptr};
  const double* wave{nullptr};
  const double* lane_mu{nullptr};

  // z^-1 delay registers and per-lane constants.
  double* prev_lro{nullptr};
  double* prev_t_dlv{nullptr};
  double* prev_e_ro{nullptr};
  double* prev_e_local{nullptr};
  const double* setpoint{nullptr};
  const double* open_loop{nullptr};
  const std::int64_t* min_len{nullptr};
  const std::int64_t* max_len{nullptr};
  const double* min_len_d{nullptr};
  const double* max_len_d{nullptr};

  // Interleaved CDN ring: slot s of lane w at ring[(s << row_shift) + w].
  // The row stride 2^row_shift is a power of two >= cw.
  double* ring{nullptr};
  std::size_t slot_mask{0};
  int row_shift{0};
  const double* cdn_delay{nullptr};
  const double* cdn_history_d{nullptr};
  const std::int64_t* cdn_history{nullptr};
  const double* cdn_initial{nullptr};
  std::uint64_t* pushes{nullptr};  // in/out: absolute push counter

  // Per-cycle staging handed to a reducer that takes slices.
  double* out_tau{nullptr};
  double* out_delta{nullptr};
  double* out_lro{nullptr};
  double* out_t_gen{nullptr};
  double* out_t_dlv{nullptr};
  std::uint8_t* out_violation{nullptr};

  // Mode flags and TDC constants (uniform across lanes, validated).
  bool fixed_clock{false};
  bool quantize_lro{true};
  sensor::Quantization tdc_q{sensor::Quantization::kNearest};
  cdn::DelayQuantization cdn_q{cdn::DelayQuantization::kRound};
  double tdc_mismatch{0.0};
  double tdc_max{0.0};

  // Controller: `iir` serves kIirBank, `controllers` (from the chunk's
  // first lane on) serves kVirtual.
  ControlKind control{ControlKind::kOpenLoop};
  SimdIirArgs iir;
  const std::unique_ptr<control::ControlBlock>* controllers{nullptr};

  // Streaming sink: slices to `reducer`, or the fold into its
  // accumulators when `fold.mean` is set.
  StreamingReducer* reducer{nullptr};
  SimdFoldArgs fold;

  // Fault replay, set on a fault-armed ensemble only.  Bit w of `armed`
  // marks lane w's schedule as having events; `isolated` is the chunk's
  // isolation mask, written by armed lanes and handed to the reducer as
  // LaneSlice::isolated (nullptr on a fault-free run).  next_consult[w]
  // is the first cycle on which armed lane w's injector can report a
  // fault: the cycle after one that reported a fault, else the start of
  // its next event.
  fault::FaultInjector* injectors{nullptr};
  std::uint64_t armed{0};
  std::uint8_t* isolated{nullptr};
  std::uint64_t* next_consult{nullptr};

  // In/out: vector-group cycles run lane by lane because of faults.
  std::uint64_t* fault_group_cycles{nullptr};
};

/// Backend entry points.  Each is defined in its ensemble_kernel_*.cpp TU;
/// the avx2/avx512/neon ones exist only when the matching
/// ROCLK_SIMD_HAVE_* macro is set (EnsembleSimulator never dispatches to
/// an uncompiled backend).
void run_chunk_simd_scalar(const SimdChunkArgs& args);
void run_chunk_simd_avx2(const SimdChunkArgs& args);
void run_chunk_simd_avx512(const SimdChunkArgs& args);
void run_chunk_simd_neon(const SimdChunkArgs& args);

// ----------------------------------------------------------------------
// Generic implementation.
//
// It has internal linkage, so each backend TU keeps private copies of the
// templates it instantiates, compiled with that TU's ISA flags.  With
// external linkage, an instantiation every TU shares (the width-1 body
// above all) would be merged by the linker into one copy, possibly the
// AVX-512 TU's, whose floor and trunc are vrndscalesd: the scalar and
// AVX2 backends would then fault on a CPU without AVX-512.

namespace {

/// PowerOfTwoGain::apply on a lane vector: shift, then optional negate.
template <class T>
inline typename T::I apply_gain(typename T::I x, const PowerOfTwoGain& gain) {
  const typename T::I shifted = T::ishift_signed(x, gain.exponent());
  return gain.negative() ? T::ineg(shifted) : shifted;
}

/// std::clamp(v, lo, hi) composed from cmp + select in std::clamp's exact
/// selection order: v < lo ? lo : (hi < v ? hi : v).
template <class T>
inline typename T::D dclamp(typename T::D v, typename T::D lo,
                            typename T::D hi) {
  v = T::select(T::cmp_lt(hi, v), hi, v);
  return T::select(T::cmp_lt(v, lo), lo, v);
}

template <class T>
inline typename T::I iclamp(typename T::I v, typename T::I lo,
                            typename T::I hi) {
  v = T::iselect(T::icmp_lt(hi, v), hi, v);
  return T::iselect(T::icmp_lt(v, lo), lo, v);
}

/// The value held by a width-1 vector.
template <class V>
inline double lane_value(typename V::D v) {
  static_assert(V::kWidth == 1, "only a width-1 vector holds one value");
  double x;
  V::store(&x, v);
  return x;
}

/// step_impl's l_RO from a scalar controller command: rounded and clamped
/// to the lane's length range, or clamped unrounded.
inline double command_to_lro(const SimdChunkArgs& a, std::size_t lane,
                             double commanded) {
  if (a.quantize_lro) {
    return static_cast<double>(std::clamp(llround_ties_away(commanded),
                                          a.min_len[lane], a.max_len[lane]));
  }
  return std::clamp(commanded, a.min_len_d[lane], a.max_len_d[lane]);
}

/// Lane j's offset (gather index) and bit (mask) within a vector group,
/// for groups of up to 8 lanes (AVX-512).
inline constexpr std::int64_t kLaneOffset[] = {0, 1, 2, 3, 4, 5, 6, 7};
inline constexpr std::int64_t kLaneBit[] = {1, 2, 4, 8, 16, 32, 64, 128};

/// One cycle's inputs as the cycle body reads them.  Block form: e_ro,
/// e_tdc and mu point at the cycle's row, chunk lane 0 first.  Homogeneous
/// form: e_ro and e_tdc are null, every lane sees `wave`, and mu points at
/// the chunk's per-lane constants.  `fold` is set on the cycles a reducer
/// with accumulators folds (its lanes have seen `skip` cycles).
struct CycleInputs {
  const double* e_ro{nullptr};
  const double* e_tdc{nullptr};
  const double* mu{nullptr};
  double wave{0.0};
  bool fold{false};
};

/// One simulated cycle for the V::kWidth lanes starting at chunk offset w:
/// LoopSimulator::step_impl statement by statement.  kSites selects the
/// fault sites compiled in (see FaultSites); kAll (width 1 only) has all
/// of step_impl's, in its order: isolation skip, begin_cycle, sensor
/// overrides, ro_offset, ring push, cdn_drop, isolation check, droop.
template <class V, sensor::Quantization TdcQ, cdn::DelayQuantization CdnQ,
          ControlKind kControl, FaultSites kSites>
inline void simd_cycle_lanes(const SimdChunkArgs& a, std::size_t w,
                             const CycleInputs& in, std::uint64_t pos,
                             std::int64_t* const* rows) {
  using D = typename V::D;
  using I = typename V::I;
  constexpr std::size_t W = V::kWidth;
  constexpr unsigned kAllLanes = (1u << W) - 1u;
  static_assert(kSites != FaultSites::kAll || W == 1,
                "every fault site runs on single lanes");
  static_assert(W <= std::size(kLaneOffset), "lane tables too short");

  // An isolated lane is frozen: it is skipped, so its staging entries keep
  // the last good cycle, exactly like LoopSimulator's frozen record, and
  // it folds nothing.  Its injector is consulted only on cycles that can
  // report a fault, which next_consult tracks (see SimdChunkArgs).
  [[maybe_unused]] fault::CycleFaults faults;
  if constexpr (kSites == FaultSites::kAll) {
    if (a.isolated[w] != 0) return;
    if (pos >= a.next_consult[w]) {
      faults = a.injectors[w].begin_cycle(pos);
      a.next_consult[w] =
          faults.any ? pos + 1 : a.injectors[w].next_start_cycle();
    }
  }

  // TDC (one-cycle latency): tau = quantize(prev_t_dlv - e_local + mism),
  // clamped to [0, max_reading].
  const D prev_t_dlv = V::load(a.prev_t_dlv + w);
  const D zero = V::broadcast(0.0);
  if (V::mask_bits(V::cmp_lt(zero, prev_t_dlv)) != kAllLanes) {
    for (std::size_t j = 0; j < W; ++j) {
      ROCLK_CHECK(a.prev_t_dlv[w + j] > 0.0,
                  "delivered period must be positive, got "
                      << a.prev_t_dlv[w + j] << " stages (lane "
                      << a.first + w + j << ")");
    }
  }
  const D e_local = V::load(a.prev_e_local + w);
  const D raw =
      V::add(V::sub(prev_t_dlv, e_local), V::broadcast(a.tdc_mismatch));
  D tau;
  if constexpr (TdcQ == sensor::Quantization::kFloor) {
    tau = V::floor(raw);
  } else if constexpr (TdcQ == sensor::Quantization::kNearest) {
    tau = V::round_ties_away(raw);
  } else {
    tau = raw;
  }
  tau = dclamp<V>(tau, zero, V::broadcast(a.tdc_max));

  // Violation is judged on the TRUE reading, before any sensor fault.
  const D setpoint = V::load(a.setpoint + w);
  const auto violated = V::cmp_lt(tau, setpoint);
  if constexpr (kSites == FaultSites::kAll) {
    if (faults.any) {
      // Sensor-mux faults (precedence resolved by the injector); a faulted
      // reading still passes through the chain's saturation.
      double t = lane_value<V>(tau);
      if (faults.tau_stuck) {
        t = std::clamp(faults.tau_stuck_value, 0.0, a.tdc_max);
      } else if (faults.tau_dropped) {
        t = 0.0;
      } else if (faults.tau_glitch != 0.0) {
        t = std::clamp(t + faults.tau_glitch, 0.0, a.tdc_max);
      }
      tau = V::broadcast(t);
    }
  }
  const D delta = V::sub(setpoint, tau);

  // Controller / generator.
  D lro_now;
  if constexpr (kControl == ControlKind::kIirBank) {
    // IirControlHardware::step on a lane-vector: feedback taps, shift-scaled
    // state update, anti-windup back-write — all exact integer arithmetic.
    const SimdIirArgs& iir = a.iir;
    I feedback = V::ibroadcast(0);
    for (std::size_t i = 0; i < iir.taps; ++i) {
      feedback =
          V::iadd(feedback, apply_gain<V>(V::iload(rows[i] + w),
                                          iir.tap_gains[i]));
    }
    const I acc = V::iadd(apply_gain<V>(V::iload(iir.prev_input + w),
                                        iir.k_exp_gain),
                          feedback);
    const I state = apply_gain<V>(acc, iir.k_star_gain);
    const I next_input =
        iir.integral_input ? V::to_int_exact(delta)
                           : V::to_int_exact(V::round_ties_away(delta));
    V::istore(iir.prev_input + w, next_input);
    const I y = V::ishift_signed(state, -iir.k_exp_gain.exponent());
    I new_row = state;
    if (iir.aw_enabled) {
      const I bounded = iclamp<V>(y, V::ibroadcast(iir.aw_min),
                                  V::ibroadcast(iir.aw_max));
      // Scalar: `if (bounded != y) row = k_exp.apply(bounded)`; y itself
      // stays unbounded (the l_RO clamp below is the output limiter).
      new_row = V::iselect(V::icmp_eq(bounded, y), state,
                           apply_gain<V>(bounded, iir.k_exp_gain));
    }
    V::istore(rows[iir.taps - 1] + w, new_row);
    // Quantize: the scalar path computes commanded = double(y), then rounds
    // it back.  Inside the exact conversion window |y| < 2^51 that round
    // trip is the identity, so the vector path keeps y; a diverged loop can
    // push y outside the window, where double(y) rounds — those (rare)
    // vectors replay the scalar round trip lane by lane, bit for bit.
    constexpr std::int64_t kWindow = std::int64_t{1} << 51;
    const unsigned in_window =
        V::imask_bits(V::icmp_lt(y, V::ibroadcast(kWindow))) &
        V::imask_bits(V::icmp_lt(V::ibroadcast(-kWindow), y));
    if (in_window == kAllLanes) {
      if (a.quantize_lro) {
        const I length =
            iclamp<V>(y, V::iload(a.min_len + w), V::iload(a.max_len + w));
        lro_now = V::to_double_exact(length);
      } else {
        lro_now = dclamp<V>(V::to_double_exact(y), V::load(a.min_len_d + w),
                            V::load(a.max_len_d + w));
      }
    } else {
      std::int64_t y_lanes[W];
      V::istore(y_lanes, y);
      double lro_lanes[W];
      for (std::size_t j = 0; j < W; ++j) {
        lro_lanes[j] =
            command_to_lro(a, w + j, static_cast<double>(y_lanes[j]));
      }
      lro_now = V::load(lro_lanes);
    }
  } else if constexpr (kControl == ControlKind::kVirtual) {
    // Each lane's own ControlBlock, stepped on the extracted delta.
    double delta_lanes[W];
    V::store(delta_lanes, delta);
    double lro_lanes[W];
    for (std::size_t j = 0; j < W; ++j) {
      lro_lanes[j] = command_to_lro(
          a, w + j, a.controllers[w + j]->step(delta_lanes[j]));
    }
    lro_now = V::load(lro_lanes);
  } else {
    lro_now = V::load(a.open_loop + w);
  }

  // RO (one-cycle latency): t_gen = max(1.0, prev_lro + e_at_ro), with
  // std::max's exact selection order (1.0 < raw ? raw : 1.0).  A fixed
  // clock ignores on-die variation; an active stage failure steps the
  // l_RO -> period mapping.
  const D e_at_ro =
      a.fixed_clock ? zero : V::load(a.prev_e_ro + w);
  D t_gen_raw = V::add(V::load(a.prev_lro + w), e_at_ro);
  if constexpr (kSites == FaultSites::kAll) {
    if (faults.any && faults.ro_offset != 0.0) {
      t_gen_raw = V::add(t_gen_raw, V::broadcast(faults.ro_offset));
    }
  }
  const D one = V::broadcast(1.0);
  const D t_gen = V::select(V::cmp_lt(one, t_gen_raw), t_gen_raw, one);

  // CDN push into the interleaved ring (lane-contiguous: vector store).
  V::store(a.ring + ((pos & a.slot_mask) << a.row_shift) + w, t_gen);

  // d = std::min(cdn_delay / t_gen, history_d): b < a ? b : a.  With
  // cdn_delay finite and >= 0 and t_gen >= 1, d lies in [0, history - 2].
  const D quotient = V::div(V::load(a.cdn_delay + w), t_gen);
  const D history_d = V::load(a.cdn_history_d + w);
  const D d =
      V::select(V::cmp_lt(history_d, quotient), history_d, quotient);

  // Quantised look-back, with QuantizedTimeCdn::look_back's boundary rule:
  // beyond the lane's history window (m >= history), or before the
  // simulation started (m > pos), the clock ran at the initial
  // (equilibrium) period.  Each lane reads its own slot, so the ring read
  // is a gather.  Its index is in bounds for every lane, those the select
  // discards included: the mask bounds the slot, and the row stride is a
  // power of two >= the chunk width.
  const I pos_v = V::ibroadcast(static_cast<std::int64_t>(pos));
  const I slot_mask = V::ibroadcast(static_cast<std::int64_t>(a.slot_mask));
  const I history = V::iload(a.cdn_history + w);
  const D initial = V::load(a.cdn_initial + w);
  const auto look_back = [&](I m) {
    const I slot = V::iand(V::isub(pos_v, m), slot_mask);
    const I index =
        V::iadd(V::ishift_signed(slot, a.row_shift), V::iload(kLaneOffset));
    const D held = V::gather(a.ring + w, index);
    return V::dselect(V::icmp_lt(pos_v, m), initial,
                      V::dselect(V::icmp_lt(m, history), held, initial));
  };
  D t_dlv;
  if constexpr (CdnQ == cdn::DelayQuantization::kRound) {
    t_dlv = look_back(V::to_int_exact(V::round_ties_away(d)));
  } else if constexpr (CdnQ == cdn::DelayQuantization::kFloor) {
    t_dlv = look_back(V::to_int_exact(V::floor(d)));
  } else {
    const D floor_d = V::floor(d);
    const I m0 = V::to_int_exact(floor_d);
    const D frac = V::sub(d, floor_d);
    const D v0 = look_back(m0);
    const D v1 = look_back(V::iadd(m0, V::ibroadcast(1)));
    const D mixed = V::add(V::mul(v0, V::sub(one, frac)), V::mul(v1, frac));
    // frac == 0 reads v0 alone; frac lies in [0, 1), so that is
    // !(0 < frac).
    t_dlv = V::select(V::cmp_lt(zero, frac), mixed, v0);
  }
  if constexpr (kSites == FaultSites::kAll) {
    // A delivery drop swallows the leaf edge: a doubled period this cycle,
    // with the tree's pipeline unaffected.
    if (faults.any && faults.cdn_drop) {
      t_dlv = V::mul(t_dlv, V::broadcast(2.0));
    }
  }

  // Lane isolation (armed lanes only): a non-physical signal freezes the
  // lane BEFORE anything is staged, folded or latched, so it can never
  // reach a reducer.  step_impl isolates on !isfinite(tau) ||
  // !isfinite(t_dlv) || t_dlv <= 0, so a lane is kept when
  // -inf < tau < inf and 0 < t_dlv < inf (a NaN fails every compare).
  // frozen_mask has the backend's int-compare mask type, which dselect
  // takes.
  using IntMask = decltype(V::icmp_eq(std::declval<I>(), std::declval<I>()));
  [[maybe_unused]] unsigned frozen = 0;
  [[maybe_unused]] IntMask frozen_mask{};
  if constexpr (kSites != FaultSites::kNone) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const D inf = V::broadcast(kInf);
    const unsigned kept = V::mask_bits(V::cmp_lt(V::broadcast(-kInf), tau)) &
                          V::mask_bits(V::cmp_lt(tau, inf)) &
                          V::mask_bits(V::cmp_lt(zero, t_dlv)) &
                          V::mask_bits(V::cmp_lt(t_dlv, inf));
    frozen = static_cast<unsigned>((a.armed >> w) & kAllLanes) & ~kept;
    if (frozen != 0) {
      for (unsigned bits = frozen; bits != 0; bits &= bits - 1) {
        a.isolated[w + static_cast<std::size_t>(std::countr_zero(bits))] = 1;
      }
      if (frozen == kAllLanes) return;
      const I bit = V::iload(kLaneBit);
      frozen_mask = V::icmp_eq(
          V::iand(V::ibroadcast(static_cast<std::int64_t>(frozen)), bit), bit);
    }
  }
  // A lane frozen this cycle keeps every staged, folded and latched value.
  const auto latch = [&](double* p, D v) {
    if constexpr (kSites == FaultSites::kIsolation) {
      if (frozen != 0) v = V::dselect(frozen_mask, V::load(p + w), v);
    }
    V::store(p + w, v);
  };

  if (a.fold.mean == nullptr) {
    // Stage the cycle's results for a reducer that takes slices.
    latch(a.out_tau, tau);
    latch(a.out_delta, delta);
    latch(a.out_lro, lro_now);
    latch(a.out_t_gen, t_gen);
    latch(a.out_t_dlv, t_dlv);
    const unsigned viol_bits = V::mask_bits(violated);
    for (std::size_t j = 0; j < W; ++j) {
      if (((frozen >> j) & 1u) == 0) {
        a.out_violation[w + j] =
            static_cast<std::uint8_t>((viol_bits >> j) & 1u);
      }
    }
  } else if (in.fold) {
    // Fold the figures of merit, op for op as evaluate_run over the
    // trace: required_safety_margin's std::max(worst, delta),
    // RunningStats::add's ++n and mean += (t_dlv - mean) / n, and its
    // std::min / std::max of tau.
    const SimdFoldArgs& f = a.fold;
    const D worst = V::load(f.worst_delta + w);
    latch(f.worst_delta, V::select(V::cmp_lt(worst, delta), delta, worst));
    const D count = V::add(V::load(f.count + w), one);
    latch(f.count, count);
    const D mean = V::load(f.mean + w);
    latch(f.mean, V::add(mean, V::div(V::sub(t_dlv, mean), count)));
    const D tau_min = V::load(f.tau_min + w);
    latch(f.tau_min, V::select(V::cmp_lt(tau, tau_min), tau, tau_min));
    const D tau_max = V::load(f.tau_max + w);
    latch(f.tau_max, V::select(V::cmp_lt(tau_max, tau), tau, tau_max));
    latch(f.violations, V::add(V::load(f.violations + w),
                               V::select(violated, one, zero)));
  }

  // Advance the z^-1 registers.  The TDC only ever reads e_tdc - mu, so
  // one register holds the difference.
  latch(a.prev_lro, lro_now);
  latch(a.prev_t_dlv, t_dlv);
  const D mu = V::load(in.mu + w);
  if (in.e_ro == nullptr) {
    const D e = V::broadcast(in.wave);
    latch(a.prev_e_ro, e);
    latch(a.prev_e_local, V::sub(e, mu));
  } else {
    latch(a.prev_e_ro, V::load(in.e_ro + w));
    latch(a.prev_e_local, V::sub(V::load(in.e_tdc + w), mu));
  }
  if constexpr (kSites == FaultSites::kAll) {
    // A supply droop slows the whole die: both the RO and the TDC chain
    // see the extra stages next cycle, in step_impl's operand order
    // (`prev_e_tdc_ += droop`, then the TDC subtracts mu).
    if (faults.any && faults.droop != 0.0) {
      const double e_ro = in.e_ro == nullptr ? in.wave : in.e_ro[w];
      const double e_tdc = in.e_tdc == nullptr ? in.wave : in.e_tdc[w];
      a.prev_e_ro[w] = e_ro + faults.droop;
      a.prev_e_local[w] = (e_tdc + faults.droop) - in.mu[w];
    }
  }
}

/// Full chunk run at one (TdcQ, CdnQ, controller) combination: vector
/// groups of T::kWidth lanes, plus the width-1 body for the tail and for
/// every group on a fault cycle.
template <class T, sensor::Quantization TdcQ, cdn::DelayQuantization CdnQ,
          ControlKind kControl>
void run_chunk_simd_typed(const SimdChunkArgs& a) {
  using S1 = simd::ScalarTraits<1>;
  constexpr std::size_t W = T::kWidth;
  constexpr std::uint64_t kGroupBits = (std::uint64_t{1} << W) - 1;
  const std::size_t cw = a.cw;
  const std::size_t vector_end = cw - cw % W;

  // Newest-first tap-row pointer ring: a step reads the feedback taps and
  // overwrites the oldest row in place with the new state; rotating the
  // ring once per cycle makes that row rows[0], so the shift register
  // advances without per-lane register moves.
  std::vector<std::int64_t*> rows;
  if constexpr (kControl == ControlKind::kIirBank) {
    rows.resize(a.iir.taps);
    for (std::size_t i = 0; i < a.iir.taps; ++i) {
      rows[i] = a.iir.bank + ((*a.iir.head + i) % a.iir.taps) * cw;
    }
  }

  // A reducer with accumulators folds from its lanes' cycle `skip` on.
  // Every lane of a chunk runs every cycle, so their cycles-seen count is
  // one number, advanced once per call.
  const bool folding = a.fold.mean != nullptr;
  const std::size_t seen = folding ? a.fold.seen[0] : 0;

  LaneSlice slice;
  slice.first_lane = a.first;
  slice.width = cw;
  slice.tau = a.out_tau;
  slice.delta = a.out_delta;
  slice.lro = a.out_lro;
  slice.t_gen = a.out_t_gen;
  slice.t_dlv = a.out_t_dlv;
  slice.violation = a.out_violation;
  slice.isolated = a.isolated;

  std::uint64_t pos = *a.pushes;
  std::uint64_t fault_group_cycles = 0;
  for (std::size_t k = 0; k < a.cycles; ++k) {
    CycleInputs in;
    in.fold = folding && seen + k >= a.fold.skip;
    if (a.wave != nullptr) {
      in.mu = a.lane_mu;
      in.wave = a.wave[k];
    } else {
      const std::size_t row = k * a.stride + a.column;
      in.e_ro = a.e_ro + row;
      in.e_tdc = a.e_tdc + row;
      in.mu = a.mu + row;
    }
    // One lane on the width-1 body, with every fault site compiled in when
    // its schedule has events.
    const auto lane_cycle = [&](std::size_t lane) {
      if (((a.armed >> lane) & 1u) != 0) {
        simd_cycle_lanes<S1, TdcQ, CdnQ, kControl, FaultSites::kAll>(
            a, lane, in, pos, rows.data());
      } else {
        simd_cycle_lanes<S1, TdcQ, CdnQ, kControl, FaultSites::kNone>(
            a, lane, in, pos, rows.data());
      }
    };
    // A fault cycle for a group: one of its armed lanes is isolated or
    // due a consult of its injector.
    const auto fault_cycle = [&](std::uint64_t group, std::size_t w) {
      for (; group != 0; group &= group - 1) {
        const std::size_t lane =
            w + static_cast<std::size_t>(std::countr_zero(group));
        if (pos >= a.next_consult[lane] || a.isolated[lane] != 0) return true;
      }
      return false;
    };
    for (std::size_t w = 0; w < vector_end; w += W) {
      const std::uint64_t group = (a.armed >> w) & kGroupBits;
      if (group == 0) {
        simd_cycle_lanes<T, TdcQ, CdnQ, kControl, FaultSites::kNone>(
            a, w, in, pos, rows.data());
      } else if (!fault_cycle(group, w)) {
        simd_cycle_lanes<T, TdcQ, CdnQ, kControl, FaultSites::kIsolation>(
            a, w, in, pos, rows.data());
      } else {
        ++fault_group_cycles;
        for (std::size_t lane = w; lane < w + W; ++lane) lane_cycle(lane);
      }
    }
    for (std::size_t w = vector_end; w < cw; ++w) lane_cycle(w);
    if constexpr (kControl == ControlKind::kIirBank) {
      std::rotate(rows.begin(), rows.end() - 1, rows.end());
    }
    ++pos;

    if (!folding) {
      slice.cycle = a.first_cycle + k;
      a.reducer->accumulate(slice);
    }
  }
  if (folding) {
    for (std::size_t w = 0; w < cw; ++w) a.fold.seen[w] = seen + a.cycles;
  }
  *a.pushes = pos;
  *a.fault_group_cycles += fault_group_cycles;
  if constexpr (kControl == ControlKind::kIirBank) {
    *a.iir.head = static_cast<std::size_t>(rows[0] - a.iir.bank) / cw;
  }
}

/// Runtime-to-compile-time dispatch of the controller kind and the
/// quantization modes.
template <class T, sensor::Quantization TdcQ, cdn::DelayQuantization CdnQ>
void dispatch_simd_control(const SimdChunkArgs& a) {
  switch (a.control) {
    case ControlKind::kOpenLoop:
      run_chunk_simd_typed<T, TdcQ, CdnQ, ControlKind::kOpenLoop>(a);
      break;
    case ControlKind::kIirBank:
      run_chunk_simd_typed<T, TdcQ, CdnQ, ControlKind::kIirBank>(a);
      break;
    case ControlKind::kVirtual:
      run_chunk_simd_typed<T, TdcQ, CdnQ, ControlKind::kVirtual>(a);
      break;
  }
}

template <class T, sensor::Quantization TdcQ>
void dispatch_simd_cdn(const SimdChunkArgs& a) {
  switch (a.cdn_q) {
    case cdn::DelayQuantization::kRound:
      dispatch_simd_control<T, TdcQ, cdn::DelayQuantization::kRound>(a);
      break;
    case cdn::DelayQuantization::kFloor:
      dispatch_simd_control<T, TdcQ, cdn::DelayQuantization::kFloor>(a);
      break;
    case cdn::DelayQuantization::kLinearInterp:
      dispatch_simd_control<T, TdcQ, cdn::DelayQuantization::kLinearInterp>(
          a);
      break;
  }
}

template <class T>
void run_chunk_simd_impl(const SimdChunkArgs& a) {
  switch (a.tdc_q) {
    case sensor::Quantization::kFloor:
      dispatch_simd_cdn<T, sensor::Quantization::kFloor>(a);
      break;
    case sensor::Quantization::kNearest:
      dispatch_simd_cdn<T, sensor::Quantization::kNearest>(a);
      break;
    case sensor::Quantization::kNone:
      dispatch_simd_cdn<T, sensor::Quantization::kNone>(a);
      break;
  }
}

}  // namespace

}  // namespace roclk::core::detail
