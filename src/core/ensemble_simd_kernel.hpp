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
//
// A call runs its chunk group by group: a lane group's loop state (the
// z^-1 registers, the IIR bank's previous input and a folding reducer's
// accumulators) is loaded into registers once, carried through all of the
// call's cycles, and stored once.  The cycle body maps (per-call
// constants, the group's per-lane constants, its state, the cycle's
// inputs) to the group's next state; per cycle only the CDN ring, the IIR
// tap rows and the cycle's input touch memory.  Groups are independent
// (disjoint ring columns and bank columns), so running one group's cycles
// before the next group's gives every lane the same operations in the
// same order as cycle-major lockstep.
//
// The route is chosen from what the ensemble holds, never from an option:
//  * the controller kind (ControlKind): open loop, the devirtualized IIR
//    bank on lane vectors, or virtual ControlBlocks stepped one lane at a
//    time over the extracted lane values;
//  * the fault schedules: a vector group holding a lane whose schedule has
//    events (an armed lane) stays on vectors, with step_impl's isolation
//    test compiled in for its armed lanes, on every cycle where none of
//    them is isolated or due a fault consult.  On those fault cycles it
//    spills its state and runs lane by lane through the width-1 body, with
//    every fault site compiled in for the armed lanes, then reloads.
//    Groups without armed lanes never leave the vector body;
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
//  * Integer IIR-bank steps are exact by definition.  The feedback sum is
//    taken in an order grouped by shift direction and sign (a negative tap
//    subtracts), which two's-complement addition does not see; every gain
//    is a variable shift by a count computed once per call.
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
//    hold what evaluate_run computes from its trace.
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

#include "roclk/cdn/cdn.hpp"
#include "roclk/common/check.hpp"
#include "roclk/common/math.hpp"
#include "roclk/common/simd.hpp"
#include "roclk/control/control_block.hpp"
#include "roclk/core/ensemble_simulator.hpp"
#include "roclk/fault/injector.hpp"
#include "roclk/sensor/tdc.hpp"

namespace roclk::core::detail {

/// Which of step_impl's fault sites a cycle body compiles in.
enum class FaultSites {
  kNone,       // a group without armed lanes
  kIsolation,  // a group with armed lanes on a quiet cycle: the isolation
               // test, on its armed lanes
  kAll,        // one armed lane (width 1): every site
};

/// One kernel call: the ensemble, the chunk, the inputs and the sink;
/// assembled by EnsembleSimulator::run_one_chunk.  The chunk's arrays and
/// state are read through `chunk`, the ensemble's constants through
/// `consts`, both built at construction.
struct SimdChunkArgs {
  const KernelConsts* consts{nullptr};
  ChunkLanes* chunk{nullptr};  // in/out: the chunk's lanes and state
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

  // Streaming sink: slices to `reducer`, or the fold into its
  // accumulators `acc` (indexed by ensemble lane) when set.
  StreamingReducer* reducer{nullptr};
  LaneAccumulators* acc{nullptr};
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

/// A kernel call as run_group reads it: local copies of the call's
/// arguments, the ensemble's constants and the chunk's lanes.  The cycle
/// body's stores (the ring, the tap rows, staging) may alias any memory,
/// but not a local, so nothing here is reloaded after a store.
struct Call {
  SimdChunkArgs a;
  KernelConsts k;
  ChunkLanes l;
};

/// step_impl's l_RO from a scalar controller command: rounded and clamped
/// to the lane's length range, or clamped unrounded.
[[gnu::always_inline]] inline double command_to_lro(const Call& c,
                                                   std::size_t lane,
                                                   double commanded) {
  if (c.k.quantize_lro) {
    return static_cast<double>(std::clamp(
        llround_ties_away(commanded), c.l.min_len[lane], c.l.max_len[lane]));
  }
  return std::clamp(commanded, c.l.min_len_d[lane], c.l.max_len_d[lane]);
}

/// The check step_impl makes through Tdc::measure_additive, reported for
/// the first offending lane of a group.
[[gnu::cold, gnu::noinline]] inline void fail_nonpositive_period(
    const double* prev_t_dlv, std::size_t width, std::size_t first_lane) {
  for (std::size_t j = 0; j < width; ++j) {
    ROCLK_CHECK(prev_t_dlv[j] > 0.0,
                "delivered period must be positive, got "
                    << prev_t_dlv[j] << " stages (lane " << first_lane + j
                    << ")");
  }
}

/// Lane j's offset (gather index) and bit (mask) within a vector group,
/// for groups of up to 8 lanes (AVX-512).
inline constexpr std::int64_t kLaneOffset[] = {0, 1, 2, 3, 4, 5, 6, 7};
inline constexpr std::int64_t kLaneBit[] = {1, 2, 4, 8, 16, 32, 64, 128};

/// A lane group's per-lane constants, loaded once per kernel call.  `mu`
/// is the homogeneous form's static mismatch (the block form reads mu per
/// cycle).
template <class V>
struct LaneConsts {
  typename V::D setpoint;
  typename V::D open_loop;
  typename V::I min_len;
  typename V::I max_len;
  typename V::D cdn_delay;
  typename V::D history_d;
  typename V::I history;
  typename V::D initial;
  typename V::D mu;
};

template <class V>
[[gnu::always_inline]] inline LaneConsts<V> load_consts(const Call& c,
                                                       std::size_t w) {
  const ChunkLanes& l = c.l;
  LaneConsts<V> g;
  g.setpoint = V::load(l.setpoint + w);
  g.open_loop = V::load(l.open_loop + w);
  g.min_len = V::iload(l.min_len + w);
  g.max_len = V::iload(l.max_len + w);
  g.cdn_delay = V::load(l.cdn_delay + w);
  g.history_d = V::load(l.cdn_history_d + w);
  g.history = V::iload(l.cdn_history + w);
  g.initial = V::load(l.cdn_initial + w);
  g.mu = c.a.wave != nullptr ? V::load(c.a.lane_mu + w) : V::broadcast(0.0);
  return g;
}

/// A lane group's loop state: the z^-1 registers, the IIR bank's previous
/// input and a folding reducer's accumulators.  It lives in registers for
/// a whole kernel call; memory holds it only between calls and around the
/// group's fault cycles.
template <class V>
struct LaneState {
  typename V::D prev_lro;
  typename V::D prev_t_dlv;
  typename V::D prev_e_ro;
  typename V::D prev_e_local;  // previous e_tdc - mu
  typename V::I prev_input;    // the IIR bank's x[n-1]
  typename V::D worst_delta;
  typename V::D mean;
  typename V::D count;
  typename V::D tau_min;
  typename V::D tau_max;
  typename V::D violations;
};

template <class V, ControlKind kControl>
[[gnu::always_inline]] inline LaneState<V> load_state(const Call& c,
                                                     std::size_t w) {
  const ChunkLanes& l = c.l;
  LaneState<V> s;
  s.prev_lro = V::load(l.prev_lro + w);
  s.prev_t_dlv = V::load(l.prev_t_dlv + w);
  s.prev_e_ro = V::load(l.prev_e_ro + w);
  s.prev_e_local = V::load(l.prev_e_local + w);
  s.prev_input = kControl == ControlKind::kIirBank
                     ? V::iload(l.iir_prev_input + w)
                     : V::ibroadcast(0);
  const LaneAccumulators* acc = c.a.acc;
  const std::size_t lane = l.first + w;
  const typename V::D zero = V::broadcast(0.0);
  s.worst_delta = acc != nullptr ? V::load(acc->worst_delta + lane) : zero;
  s.mean = acc != nullptr ? V::load(acc->mean + lane) : zero;
  s.count = acc != nullptr ? V::load(acc->count + lane) : zero;
  s.tau_min = acc != nullptr ? V::load(acc->tau_min + lane) : zero;
  s.tau_max = acc != nullptr ? V::load(acc->tau_max + lane) : zero;
  s.violations = acc != nullptr ? V::load(acc->violations + lane) : zero;
  return s;
}

template <class V, ControlKind kControl>
[[gnu::always_inline]] inline void store_state(const Call& c, std::size_t w,
                                              const LaneState<V>& s) {
  const ChunkLanes& l = c.l;
  V::store(l.prev_lro + w, s.prev_lro);
  V::store(l.prev_t_dlv + w, s.prev_t_dlv);
  V::store(l.prev_e_ro + w, s.prev_e_ro);
  V::store(l.prev_e_local + w, s.prev_e_local);
  if constexpr (kControl == ControlKind::kIirBank) {
    V::istore(l.iir_prev_input + w, s.prev_input);
  }
  if (LaneAccumulators* acc = c.a.acc) {
    const std::size_t lane = l.first + w;
    V::store(acc->worst_delta + lane, s.worst_delta);
    V::store(acc->mean + lane, s.mean);
    V::store(acc->count + lane, s.count);
    V::store(acc->tau_min + lane, s.tau_min);
    V::store(acc->tau_max + lane, s.tau_max);
    V::store(acc->violations + lane, s.violations);
  }
}

/// The IIR bank's ring base one row back, as a lane offset: the row the
/// cycle's new state goes to (twinned taps rows further on), and the next
/// cycle's base.
[[gnu::always_inline]] inline std::size_t next_tap_row(const KernelConsts& k,
                                                       std::size_t tap_row) {
  return tap_row == 0 ? (k.taps - 1) * k.row_stride : tap_row - k.row_stride;
}

/// One cycle's inputs and sink as the cycle body reads them.  Block form:
/// e_ro, e_tdc and mu point at the cycle's row, chunk lane 0 first.
/// Homogeneous form: they are null, every lane sees `wave`, and mu is the
/// group's constant.  `stage` is set for a reducer that takes slices;
/// otherwise `fold` on the cycles a reducer with accumulators folds (its
/// lanes have seen `skip` cycles).
struct CycleInputs {
  const double* e_ro{nullptr};
  const double* e_tdc{nullptr};
  const double* mu{nullptr};
  double wave{0.0};
  bool stage{false};
  bool fold{false};
};

/// One simulated cycle for the V::kWidth lanes starting at chunk offset w:
/// LoopSimulator::step_impl statement by statement, on the group's state
/// `s`.  `c` is run_group's local copy of the call (so nothing is reloaded
/// after a store), `tap_row` the IIR bank's ring base this cycle, as an
/// offset in lanes (the base row times the row stride).
/// kSites
/// selects the fault sites compiled in (see FaultSites); kAll (width 1
/// only) has all of step_impl's, in its order:
/// isolation skip, begin_cycle, sensor overrides, ro_offset, ring push,
/// cdn_drop, isolation check, droop.  Returns the lanes the isolation test
/// froze this cycle (bit j = lane w + j).
template <class V, sensor::Quantization TdcQ, cdn::DelayQuantization CdnQ,
          ControlKind kControl, FaultSites kSites>
[[gnu::always_inline]] inline unsigned simd_cycle_lanes(
    const Call& c, std::size_t w, const LaneConsts<V>& g, LaneState<V>& s,
    const CycleInputs& in, std::uint64_t pos, std::size_t tap_row) {
  const KernelConsts& k = c.k;
  const ChunkLanes& l = c.l;
  using D = typename V::D;
  using I = typename V::I;
  constexpr std::size_t W = V::kWidth;
  constexpr unsigned kAllLanes = (1u << W) - 1u;
  static_assert(kSites != FaultSites::kAll || W == 1,
                "every fault site runs on single lanes");
  static_assert(W <= std::size(kLaneOffset), "lane tables too short");

  // An isolated lane is frozen: it is skipped, so its state and staging
  // entries keep the last good cycle, exactly like LoopSimulator's frozen
  // record, and it folds nothing.  Its injector is consulted only on
  // cycles that can report a fault, which next_consult tracks (see
  // ChunkLanes).
  [[maybe_unused]] fault::CycleFaults faults;
  if constexpr (kSites == FaultSites::kAll) {
    if (l.isolated[w] != 0) return 0;
    if (pos >= l.next_consult[w]) {
      faults = l.injectors[w].begin_cycle(pos);
      l.next_consult[w] =
          faults.any ? pos + 1 : l.injectors[w].next_start_cycle();
    }
  }

  // TDC (one-cycle latency): tau = quantize(prev_t_dlv - e_local + mism),
  // clamped to [0, max_reading].
  const D zero = V::broadcast(0.0);
  const D one = V::broadcast(1.0);
  if (V::mask_bits(V::cmp_lt(zero, s.prev_t_dlv)) != kAllLanes) {
    double lanes[W];
    V::store(lanes, s.prev_t_dlv);
    fail_nonpositive_period(lanes, W, l.first + w);
  }
  const D raw = V::add(V::sub(s.prev_t_dlv, s.prev_e_local),
                       V::broadcast(k.tdc_mismatch));
  D tau;
  if constexpr (TdcQ == sensor::Quantization::kFloor) {
    tau = V::floor(raw);
  } else if constexpr (TdcQ == sensor::Quantization::kNearest) {
    tau = V::round_ties_away(raw);
  } else {
    tau = raw;
  }
  tau = dclamp<V>(tau, zero, V::broadcast(k.tdc_max));

  // Violation is judged on the TRUE reading, before any sensor fault.
  const auto violated = V::cmp_lt(tau, g.setpoint);
  if constexpr (kSites == FaultSites::kAll) {
    if (faults.any) {
      // Sensor-mux faults (precedence resolved by the injector); a faulted
      // reading still passes through the chain's saturation.
      double t = lane_value<V>(tau);
      if (faults.tau_stuck) {
        t = std::clamp(faults.tau_stuck_value, 0.0, k.tdc_max);
      } else if (faults.tau_dropped) {
        t = 0.0;
      } else if (faults.tau_glitch != 0.0) {
        t = std::clamp(t + faults.tau_glitch, 0.0, k.tdc_max);
      }
      tau = V::broadcast(t);
    }
  }
  const D delta = V::sub(g.setpoint, tau);

  // Controller / generator.
  D lro_now;
  if constexpr (kControl == ControlKind::kIirBank) {
    // IirControlHardware::step on a lane-vector: feedback taps, shift-scaled
    // state update, anti-windup back-write — all exact integer arithmetic,
    // every gain one variable shift by a per-call count.
    std::int64_t* const ring = l.iir_bank + w;
    const std::int64_t* const newest = ring + tap_row;
    const IirTapShift* const taps = k.tap_shifts;
    const auto shifted = [&](const IirTapShift* t, auto shift) {
      return shift(V::iload(newest + t->offset), V::ibroadcast(t->shift));
    };
    const auto left = [](I x, I count) { return V::ishl(x, count); };
    const auto right = [](I x, I count) { return V::isra(x, count); };
    I feedback = V::ibroadcast(0);
    const IirTapShift* t = taps;
    for (; t != taps + k.left_add_end; ++t) {
      feedback = V::iadd(feedback, shifted(t, left));
    }
    for (; t != taps + k.left_sub_end; ++t) {
      feedback = V::isub(feedback, shifted(t, left));
    }
    for (; t != taps + k.right_add_end; ++t) {
      feedback = V::iadd(feedback, shifted(t, right));
    }
    for (; t != taps + k.taps; ++t) {
      feedback = V::isub(feedback, shifted(t, right));
    }
    const I k_exp = V::ibroadcast(k.k_exp_shift);
    const I acc = V::iadd(V::ishl(s.prev_input, k_exp), feedback);
    const I state =
        V::isra(V::ishl(acc, V::ibroadcast(std::max(k.k_star_exponent, 0))),
                V::ibroadcast(std::max(-k.k_star_exponent, 0)));
    // delta is integral whenever the set-points are and the TDC quantizes
    // (l.integral_input), so rounding it is the identity — except on a
    // fault cycle, whose sensor override can carry a real value.
    if (l.integral_input && kSites != FaultSites::kAll) {
      s.prev_input = V::to_int_exact(delta);
    } else {
      s.prev_input = V::to_int_exact(V::round_ties_away(delta));
    }
    const I y = V::isra(state, k_exp);
    I new_row = state;
    if (k.aw_enabled) {
      const I bounded =
          iclamp<V>(y, V::ibroadcast(k.aw_min), V::ibroadcast(k.aw_max));
      // Scalar: `if (bounded != y) row = k_exp.apply(bounded)`; y itself
      // stays unbounded (the l_RO clamp below is the output limiter).
      new_row = V::iselect(V::icmp_eq(bounded, y), state,
                           V::ishl(bounded, k_exp));
    }
    // The new state is the newest at the next cycle's base, one row back,
    // and its twin.
    const std::size_t next_row = next_tap_row(k, tap_row);
    V::istore(ring + next_row, new_row);
    V::istore(ring + next_row + k.taps * k.row_stride, new_row);
    // The scalar path computes commanded = double(y), then rounds and
    // clamps it to the length range (quantize_lro) or clamps it unrounded.
    // Inside the exact conversion window |y| < 2^51 double(y) is exact, so
    // both are double(clamp(y, min, max)); a diverged loop can push y
    // outside the window, where double(y) rounds — those (rare) vectors
    // replay the scalar round trip lane by lane, bit for bit.
    constexpr std::int64_t kWindow = std::int64_t{1} << 51;
    const unsigned in_window =
        V::imask_bits(V::icmp_lt(y, V::ibroadcast(kWindow))) &
        V::imask_bits(V::icmp_lt(V::ibroadcast(-kWindow), y));
    if (in_window == kAllLanes) {
      lro_now = V::to_double_exact(iclamp<V>(y, g.min_len, g.max_len));
    } else {
      std::int64_t y_lanes[W];
      V::istore(y_lanes, y);
      double lro_lanes[W];
      for (std::size_t j = 0; j < W; ++j) {
        lro_lanes[j] =
            command_to_lro(c, w + j, static_cast<double>(y_lanes[j]));
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
          c, w + j, k.controllers[l.first + w + j]->step(delta_lanes[j]));
    }
    lro_now = V::load(lro_lanes);
  } else {
    lro_now = g.open_loop;
  }

  // RO (one-cycle latency): t_gen = max(1.0, prev_lro + e_at_ro), with
  // std::max's exact selection order (1.0 < raw ? raw : 1.0).  A fixed
  // clock (an open-loop mode) ignores on-die variation; an active stage
  // failure steps the l_RO -> period mapping.
  D e_at_ro = s.prev_e_ro;
  if constexpr (kControl == ControlKind::kOpenLoop) {
    if (k.fixed_clock) e_at_ro = zero;
  }
  D t_gen_raw = V::add(s.prev_lro, e_at_ro);
  if constexpr (kSites == FaultSites::kAll) {
    if (faults.any && faults.ro_offset != 0.0) {
      t_gen_raw = V::add(t_gen_raw, V::broadcast(faults.ro_offset));
    }
  }
  const D t_gen = V::select(V::cmp_lt(one, t_gen_raw), t_gen_raw, one);

  // CDN push into the interleaved ring (lane-contiguous: vector store).
  V::store(l.ring + ((pos & l.slot_mask) << l.row_shift) + w, t_gen);

  // d = std::min(cdn_delay / t_gen, history_d): b < a ? b : a.  With
  // cdn_delay finite and >= 0 and t_gen >= 1, d lies in [0, history - 2].
  const D quotient = V::div(g.cdn_delay, t_gen);
  const D d =
      V::select(V::cmp_lt(g.history_d, quotient), g.history_d, quotient);

  // Quantised look-back, with QuantizedTimeCdn::look_back's boundary rule:
  // beyond the lane's history window (m >= history), or before the
  // simulation started (m > pos), the clock ran at the initial
  // (equilibrium) period.  Each lane reads its own slot, so the ring read
  // is a gather.  Its index is in bounds for every lane, those the select
  // discards included: the mask bounds the slot, and the row stride is a
  // power of two >= the chunk width.
  const I pos_v = V::ibroadcast(static_cast<std::int64_t>(pos));
  const I slot_mask = V::ibroadcast(static_cast<std::int64_t>(l.slot_mask));
  const I row_shift = V::ibroadcast(l.row_shift);
  const auto look_back = [&](I m) {
    const I slot = V::iand(V::isub(pos_v, m), slot_mask);
    const I index =
        V::iadd(V::ishl(slot, row_shift), V::iload(kLaneOffset));
    const D held = V::gather(l.ring + w, index);
    return V::dselect(V::icmp_lt(pos_v, m), g.initial,
                      V::dselect(V::icmp_lt(m, g.history), held, g.initial));
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
    frozen = static_cast<unsigned>((l.armed >> w) & kAllLanes) & ~kept;
    if (frozen != 0) {
      for (unsigned bits = frozen; bits != 0; bits &= bits - 1) {
        l.isolated[w + static_cast<std::size_t>(std::countr_zero(bits))] = 1;
      }
      if (frozen == kAllLanes) return frozen;
      const I bit = V::iload(kLaneBit);
      frozen_mask = V::icmp_eq(
          V::iand(V::ibroadcast(static_cast<std::int64_t>(frozen)), bit), bit);
    }
  }
  // A lane frozen this cycle keeps every staged, folded and latched value.
  const auto latch = [&](D held, D v) {
    if constexpr (kSites == FaultSites::kIsolation) {
      if (frozen != 0) return V::dselect(frozen_mask, held, v);
    }
    return v;
  };
  const auto stage = [&](double* p, D v) {
    if constexpr (kSites == FaultSites::kIsolation) {
      if (frozen != 0) v = V::dselect(frozen_mask, V::load(p + w), v);
    }
    V::store(p + w, v);
  };

  if (in.stage) {
    // Stage the cycle's results for a reducer that takes slices.
    stage(l.tau, tau);
    stage(l.delta, delta);
    stage(l.lro, lro_now);
    stage(l.t_gen, t_gen);
    stage(l.t_dlv, t_dlv);
    const unsigned viol_bits = V::mask_bits(violated);
    for (std::size_t j = 0; j < W; ++j) {
      if (((frozen >> j) & 1u) == 0) {
        l.violation[w + j] =
            static_cast<std::uint8_t>((viol_bits >> j) & 1u);
      }
    }
  } else if (in.fold) {
    // Fold the figures of merit, op for op as evaluate_run over the
    // trace: required_safety_margin's std::max(worst, delta),
    // RunningStats::add's ++n and mean += (t_dlv - mean) / n, and its
    // std::min / std::max of tau.
    const D count = V::add(s.count, one);
    s.worst_delta = latch(
        s.worst_delta,
        V::select(V::cmp_lt(s.worst_delta, delta), delta, s.worst_delta));
    s.mean = latch(s.mean,
                   V::add(s.mean, V::div(V::sub(t_dlv, s.mean), count)));
    s.count = latch(s.count, count);
    s.tau_min = latch(s.tau_min,
                      V::select(V::cmp_lt(tau, s.tau_min), tau, s.tau_min));
    s.tau_max = latch(s.tau_max,
                      V::select(V::cmp_lt(s.tau_max, tau), tau, s.tau_max));
    s.violations = latch(s.violations,
                         V::add(s.violations, V::select(violated, one, zero)));
  }

  // Advance the z^-1 registers.  The TDC only ever reads e_tdc - mu, so
  // one register holds the difference.
  s.prev_lro = latch(s.prev_lro, lro_now);
  s.prev_t_dlv = latch(s.prev_t_dlv, t_dlv);
  if (in.e_ro == nullptr) {
    const D e = V::broadcast(in.wave);
    s.prev_e_ro = latch(s.prev_e_ro, e);
    s.prev_e_local = latch(s.prev_e_local, V::sub(e, g.mu));
  } else {
    s.prev_e_ro = latch(s.prev_e_ro, V::load(in.e_ro + w));
    s.prev_e_local = latch(
        s.prev_e_local, V::sub(V::load(in.e_tdc + w), V::load(in.mu + w)));
  }
  if constexpr (kSites == FaultSites::kAll) {
    // A supply droop slows the whole die: both the RO and the TDC chain
    // see the extra stages next cycle, in step_impl's operand order
    // (`prev_e_tdc_ += droop`, then the TDC subtracts mu).
    if (faults.any && faults.droop != 0.0) {
      const bool homogeneous = in.e_ro == nullptr;
      const double e_ro = homogeneous ? in.wave : in.e_ro[w];
      const double e_tdc = homogeneous ? in.wave : in.e_tdc[w];
      const double mu = homogeneous ? lane_value<V>(g.mu) : in.mu[w];
      s.prev_e_ro = V::broadcast(e_ro + faults.droop);
      s.prev_e_local = V::broadcast((e_tdc + faults.droop) - mu);
    }
  }
  return frozen;
}

/// Cycle k's inputs: the wave sample, or the block row.
[[gnu::always_inline]] inline CycleInputs cycle_inputs(const SimdChunkArgs& a,
                                                       std::size_t k,
                                                       bool stage, bool fold) {
  CycleInputs in;
  in.stage = stage;
  in.fold = fold;
  if (a.wave != nullptr) {
    in.wave = a.wave[k];
  } else {
    const std::size_t row = k * a.stride + a.column;
    in.e_ro = a.e_ro + row;
    in.e_tdc = a.e_tdc + row;
    in.mu = a.mu + row;
  }
  return in;
}

/// The first cycle on which the vector group at w, whose armed lanes are
/// the bits of `group`, has a fault cycle: one of its armed lanes is
/// isolated (every cycle from now) or due a consult of its injector.
[[gnu::always_inline]] inline std::uint64_t next_fault_cycle(
    const ChunkLanes& l, std::uint64_t group, std::size_t w) {
  std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
  for (; group != 0; group &= group - 1) {
    const std::size_t lane =
        w + static_cast<std::size_t>(std::countr_zero(group));
    if (l.isolated[lane] != 0) return 0;
    next = std::min(next, l.next_consult[lane]);
  }
  return next;
}

/// Cycles [k_begin, k_end) of the call for the V::kWidth lanes at chunk
/// offset w, on state held in registers: loaded once, stored once.  kSites
/// is kNone (no armed lane), kIsolation (a vector group holding armed
/// lanes) or kAll (one armed lane).  A vector group with armed lanes runs
/// each of its fault cycles as one cycle of each of its lanes through this
/// function at width 1, from the state it spills, and reloads it after.
/// With `emit` set, a reducer that takes slices gets one per cycle for
/// these lanes.
template <class V, sensor::Quantization TdcQ, cdn::DelayQuantization CdnQ,
          ControlKind kControl, FaultSites kSites>
void run_group(const SimdChunkArgs& a, std::size_t w, std::size_t k_begin,
               std::size_t k_end, bool emit,
               std::uint64_t& fault_group_cycles) {
  using S1 = simd::ScalarTraits<1>;
  constexpr std::size_t W = V::kWidth;
  const Call c{a, *a.consts, *a.chunk};
  const ChunkLanes& l = c.l;
  const LaneConsts<V> g = load_consts<V>(c, w);
  LaneState<V> s = load_state<V, kControl>(c, w);

  // A reducer with accumulators folds from its lanes' cycle `skip` on.
  // Every lane of a chunk runs every cycle, so their cycles-seen count is
  // one number, advanced once per call.
  const bool stage = a.acc == nullptr;
  std::size_t fold_from = k_end;
  if (!stage) {
    const std::size_t seen = a.acc->seen[l.first];
    const std::size_t skip = a.acc->skip;
    fold_from = seen >= skip ? k_begin
                             : std::clamp(skip - seen, k_begin, k_end);
  }
  LaneSlice slice;
  slice.first_lane = l.first + w;
  slice.width = W;
  slice.tau = l.tau + w;
  slice.delta = l.delta + w;
  slice.lro = l.lro + w;
  slice.t_gen = l.t_gen + w;
  slice.t_dlv = l.t_dlv + w;
  slice.violation = l.violation + w;
  slice.isolated = l.injectors != nullptr ? l.isolated + w : nullptr;

  // The IIR bank's ring base moves back one row per cycle, so the row the
  // step overwrites (the oldest state) holds the newest one next cycle.
  std::size_t tap_row = 0;
  if constexpr (kControl == ControlKind::kIirBank) {
    const std::size_t taps = c.k.taps;
    tap_row = (l.iir_head + taps - k_begin % taps) % taps * c.k.row_stride;
  }

  [[maybe_unused]] const std::uint64_t group =
      (l.armed >> w) & ((std::uint64_t{1} << W) - 1);
  [[maybe_unused]] std::uint64_t quiet_until =
      kSites == FaultSites::kIsolation ? next_fault_cycle(l, group, w) : 0;

  // The cycles in two spans, before the fold starts and from it on:
  // `fold` is constant over a span, so no cycle compares k with
  // fold_from, and the compiler keeps one copy of the loop.
  const std::size_t span_end[] = {fold_from, k_end};
  std::uint64_t pos = l.pushes + k_begin;
  std::size_t k = k_begin;
  for (const std::size_t end : span_end) {
    const bool fold = !stage && k >= fold_from;
    for (; k < end; ++k, ++pos) {
      const CycleInputs in = cycle_inputs(c.a, k, stage, fold);
      if constexpr (kSites == FaultSites::kIsolation) {
        if (pos >= quiet_until) {
          store_state<V, kControl>(c, w, s);
          ++fault_group_cycles;
          for (std::size_t lane = w; lane < w + W; ++lane) {
            if (((l.armed >> lane) & 1u) != 0) {
              run_group<S1, TdcQ, CdnQ, kControl, FaultSites::kAll>(
                  a, lane, k, k + 1, false, fault_group_cycles);
            } else {
              run_group<S1, TdcQ, CdnQ, kControl, FaultSites::kNone>(
                  a, lane, k, k + 1, false, fault_group_cycles);
            }
          }
          s = load_state<V, kControl>(c, w);
          quiet_until = next_fault_cycle(l, group, w);
        } else if (simd_cycle_lanes<V, TdcQ, CdnQ, kControl, kSites>(
                       c, w, g, s, in, pos, tap_row) != 0) {
          quiet_until = 0;  // an isolated lane: every cycle a fault cycle
        }
      } else {
        simd_cycle_lanes<V, TdcQ, CdnQ, kControl, kSites>(c, w, g, s, in,
                                                          pos, tap_row);
      }
      if (stage && emit) {
        slice.cycle = c.a.first_cycle + k;
        c.a.reducer->accumulate(slice);
      }
      if constexpr (kControl == ControlKind::kIirBank) {
        tap_row = next_tap_row(c.k, tap_row);
      }
    }
  }
  store_state<V, kControl>(c, w, s);
}

/// Full chunk run at one (TdcQ, CdnQ, controller) combination: vector
/// groups of T::kWidth lanes, then each tail lane as a group of its own,
/// each running all of the call's cycles before the next starts.
template <class T, sensor::Quantization TdcQ, cdn::DelayQuantization CdnQ,
          ControlKind kControl>
void run_chunk_simd_typed(const SimdChunkArgs& a) {
  using S1 = simd::ScalarTraits<1>;
  constexpr std::size_t W = T::kWidth;
  constexpr std::uint64_t kGroupBits = (std::uint64_t{1} << W) - 1;
  ChunkLanes& chunk = *a.chunk;
  const std::size_t cw = chunk.width;
  const std::size_t vector_end = cw - cw % W;

  std::uint64_t fault_group_cycles = 0;
  for (std::size_t w = 0; w < vector_end; w += W) {
    if (((chunk.armed >> w) & kGroupBits) == 0) {
      run_group<T, TdcQ, CdnQ, kControl, FaultSites::kNone>(
          a, w, 0, a.cycles, true, fault_group_cycles);
    } else {
      run_group<T, TdcQ, CdnQ, kControl, FaultSites::kIsolation>(
          a, w, 0, a.cycles, true, fault_group_cycles);
    }
  }
  for (std::size_t w = vector_end; w < cw; ++w) {
    if (((chunk.armed >> w) & 1u) != 0) {
      run_group<S1, TdcQ, CdnQ, kControl, FaultSites::kAll>(
          a, w, 0, a.cycles, true, fault_group_cycles);
    } else {
      run_group<S1, TdcQ, CdnQ, kControl, FaultSites::kNone>(
          a, w, 0, a.cycles, true, fault_group_cycles);
    }
  }

  if (a.acc != nullptr) {
    std::size_t* const seen = a.acc->seen + chunk.first;
    std::fill_n(seen, cw, seen[0] + a.cycles);
  }
  chunk.pushes += a.cycles;
  chunk.fault_group_cycles += fault_group_cycles;
  if constexpr (kControl == ControlKind::kIirBank) {
    const std::size_t taps = a.consts->taps;
    chunk.iir_head = (chunk.iir_head + taps - a.cycles % taps) % taps;
  }
}

/// Runtime-to-compile-time dispatch of the controller kind and the
/// quantization modes.
template <class T, sensor::Quantization TdcQ, cdn::DelayQuantization CdnQ>
void dispatch_simd_control(const SimdChunkArgs& a) {
  switch (a.consts->control) {
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
  switch (a.consts->cdn_q) {
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
  switch (a.consts->tdc_q) {
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
