// Lane-parallel ensemble execution of the paper's control loop.
//
// Ensemble studies (Monte-Carlo over PVTA scenarios, mismatch grids,
// multi-domain partitionings) run many *independent* instances of the
// Fig. 4 loop.  LoopSimulator executes one instance per call and
// materializes a full SimulationTrace even when the caller only wants four
// RunMetrics numbers.  EnsembleSimulator instead runs W lanes as
// structure-of-arrays lane vectors:
//
//  * a kernel call runs its chunk lane group by lane group (one vector of
//    lanes), each group's z^-1 registers (prev_lro / prev_t_dlv /
//    prev_e_*), IIR input and fold accumulators held in registers for all
//    of the call's cycles, so a cycle issues the Fig. 4 arithmetic and
//    little else;
//  * the CDN rings are interleaved per lane chunk ([slot][lane], power of
//    two slots, mask indexing) and stay L1-resident;
//  * the IIR control hardware is devirtualized once per ensemble into a
//    lane-strided integer bank ([tap][lane]), mirroring run_batch's fast
//    path; other controllers keep one ControlBlock per lane, stepped on
//    the lane values the vector computed;
//  * one per-chunk kernel, templated over the SIMD backend
//    (src/core/ensemble_simd_kernel.hpp), runs every chunk: vector groups
//    of lanes, with the tail, and fault-armed groups on their fault
//    cycles, on its width-1 instantiation.  It reads a caller-sampled
//    block (run) or, for the homogeneous Monte-Carlo (run_homogeneous),
//    one waveform sample per cycle broadcast to every lane plus each
//    lane's constant mu.
//
// Per-cycle results go to a StreamingReducer instead of a trace, so a
// 1k-lane study allocates O(W) accumulator state, not O(W * cycles) trace
// memory.  A reducer either takes a LaneSlice per lane group per cycle
// (TraceReducer), or hands the kernel LaneAccumulators, into which each
// cycle's figures of merit are folded while they are still in vector
// registers, with no staging and no call per cycle (MetricsReducer).
//
// Equivalence guarantee (enforced by tests/core/test_ensemble_simulator
// and test_ensemble_simd): lane w of run() performs exactly the
// arithmetic, in exactly the order, of a scalar LoopSimulator::run_batch
// over the same per-lane inputs — every tau/delta/lro/t_gen/t_dlv it
// streams is bit-for-bit identical, and its folded accumulators hold
// what evaluate_run computes from that trace.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "roclk/common/simd.hpp"
#include "roclk/common/status.hpp"
#include "roclk/common/thread_pool.hpp"
#include "roclk/control/control_block.hpp"
#include "roclk/core/inputs.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/core/trace.hpp"
#include "roclk/sensor/tdc.hpp"
#include "roclk/signal/waveform.hpp"

namespace roclk::core {

namespace detail {
struct SimdChunkArgs;  // the per-chunk kernel's arguments

/// One feedback tap of the devirtualized IIR bank as the kernel applies
/// it: where its state row lies from the bank's ring base (its age in the
/// newest-first tap order, times the bank's row stride) and the magnitude
/// of its power-of-two gain's exponent, a shift count.
struct IirTapShift {
  std::int32_t offset{0};
  std::int32_t shift{0};
};
}  // namespace detail

/// One simulated cycle's results for one lane group (a contiguous range of
/// lanes the kernel runs as one vector, or a single tail lane), as a
/// reducer without accumulators receives them.  The arrays are indexed
/// [0, width) and belong to lanes [first_lane, first_lane + width).
struct LaneSlice {
  std::size_t first_lane{0};
  std::size_t width{0};
  std::size_t cycle{0};  // counted from 0 over the whole run call
  const double* tau{nullptr};
  const double* delta{nullptr};
  const double* lro{nullptr};
  const double* t_gen{nullptr};
  const double* t_dlv{nullptr};
  const std::uint8_t* violation{nullptr};
  /// Per-lane isolation mask, or nullptr on a fault-free run.  An isolated
  /// lane's slice entries repeat its last good cycle (never NaN); reducers
  /// that aggregate across lanes should skip flagged lanes.
  const std::uint8_t* isolated{nullptr};
};

/// Per-lane figures of merit that the ensemble kernel folds each cycle
/// into, indexed by ensemble lane: the reducer hook that replaces a
/// per-cycle LaneSlice (see StreamingReducer::accumulators()).  A lane's
/// cycles are counted in `seen`; on every cycle from `skip` on that the
/// lane runs un-isolated, the kernel folds, with RunningStats::add's and
/// evaluate_run's operations in their order:
///   worst_delta = max(worst_delta, delta)       (from 0)
///   count += 1; mean += (t_dlv - mean) / count   (Welford mean of t_dlv)
///   tau_min = min(tau_min, tau); tau_max = max(tau_max, tau)
///   violations += tau < setpoint                 (on the true reading)
/// tau and delta are the values a slice would hold, after any sensor
/// fault; the violation is judged before it.  An isolated lane folds
/// nothing more but keeps counting `seen`.  count and violations are
/// doubles so the fold stays on lane vectors; they are exact below 2^53.
/// Each array starts on its own cache line and a chunk covers 32 lanes,
/// so chunks running on different threads never share a line.
struct LaneAccumulators {
  LaneAccumulators(std::size_t lanes, std::size_t skip);

  [[nodiscard]] std::size_t lanes() const { return seen.size(); }

  simd::aligned_vector<double> worst_delta;
  simd::aligned_vector<double> mean;
  simd::aligned_vector<double> count;  // folded cycles
  simd::aligned_vector<double> tau_min;
  simd::aligned_vector<double> tau_max;
  simd::aligned_vector<double> violations;
  simd::aligned_vector<std::size_t> seen;  // cycles run, skipped included
  std::size_t skip{0};                     // cycles seen before the fold
};

/// Streaming consumer of ensemble results.  A reducer whose accumulators()
/// is null gets accumulate() once per cycle per lane group: a chunk runs
/// its groups one after another, each through all of the call's cycles,
/// so each group's slices arrive with cycles 0..n-1 in order, the groups
/// of a chunk cover its lanes once, and slices of different groups do
/// not interleave by cycle.  One that returns accumulators gets no call
/// at all: the kernel folds into them (see LaneAccumulators).  When a run
/// call has a pool, each chunk runs as one pool task for the whole call,
/// so chunks covering disjoint lane ranges may call accumulate() or fold
/// concurrently — implementations must only touch per-lane state (as
/// TraceReducer does).
class StreamingReducer {
 public:
  virtual ~StreamingReducer() = default;
  virtual void accumulate(const LaneSlice& slice) = 0;
  /// The accumulators the kernel folds into instead of calling
  /// accumulate(), or nullptr (the default) for a slice per cycle.  Every
  /// lane of a chunk must have seen the same number of cycles.
  [[nodiscard]] virtual LaneAccumulators* accumulators() { return nullptr; }
};

/// Reducer that materializes one full SimulationTrace per lane — the
/// compatibility/debug path, and the witness for the bit-for-bit
/// equivalence tests against LoopSimulator::run_batch.
class TraceReducer final : public StreamingReducer {
 public:
  explicit TraceReducer(std::size_t lanes, std::size_t reserve_cycles = 0);

  void accumulate(const LaneSlice& slice) override;

  [[nodiscard]] std::size_t lanes() const { return traces_.size(); }
  [[nodiscard]] const SimulationTrace& trace(std::size_t lane) const;

 private:
  std::vector<SimulationTrace> traces_;
};

class EnsembleSimulator {
 public:
  /// One LoopConfig per lane.  All lanes must agree on mode, quantize_lro
  /// and the TDC/CDN quantization (the kernel hoists those branches);
  /// scalar fields — set-point, CDN delay, open-loop period, length range —
  /// may vary per lane.  In controlled mode `controllers` supplies one
  /// ControlBlock per lane; in the open-loop modes it must be empty.
  EnsembleSimulator(
      std::vector<LoopConfig> lane_configs,
      std::vector<std::unique_ptr<control::ControlBlock>> controllers);

  /// W lanes of one scalar configuration; `prototype` (may be null for the
  /// open-loop modes) is cloned per lane.
  [[nodiscard]] static EnsembleSimulator uniform(
      const LoopConfig& config, const control::ControlBlock* prototype,
      std::size_t width);

  [[nodiscard]] static Status validate(
      std::span<const LoopConfig> lane_configs, std::size_t controller_count);

  /// Restores every lane to its error-free equilibrium (same semantics as
  /// LoopSimulator::reset per lane).
  void reset();

  [[nodiscard]] std::size_t width() const { return configs_.size(); }
  [[nodiscard]] const LoopConfig& lane_config(std::size_t lane) const {
    return configs_.at(lane);
  }
  /// True when every lane runs the devirtualized integer-IIR bank.
  [[nodiscard]] bool uses_iir_fast_path() const { return iir_bank_active_; }

  /// Runs block.cycles cycles on every lane, streaming per-cycle results
  /// into `reducer` (slices, or the fold into its accumulators).
  /// block.width must equal width().  `pool` distributes lane chunks over
  /// its workers (nullptr = strictly sequential); per-lane results are
  /// bitwise identical for every choice of pool, which the
  /// scheduling-invariance gates hold.  Like run_batch, successive calls
  /// continue from the current loop state; call reset() to start a fresh
  /// run.
  void run(const EnsembleInputBlock& block, StreamingReducer& reducer,
           ThreadPool* pool = nullptr);

  /// The homogeneous Monte-Carlo run: `cycles` cycles in which every lane
  /// sees `waveform` sampled at t = k * dt (k counted from 0 in this
  /// call) on both e_ro and e_tdc, plus its own static mismatch
  /// static_mu_stages[w] — bitwise the same as running
  /// sample_homogeneous_ensemble's block through run().  Each chunk is one
  /// pool task for the whole call: it samples the waveform into a
  /// 512-cycle (4 KiB) tile of its own, and the kernel broadcasts each
  /// sample to the chunk's lanes and reads their mu straight from
  /// `static_mu_stages`, so the chunk's state stays on one core, sampling
  /// runs on every thread, and memory does not grow with `cycles`.
  /// waveform.at() is therefore called concurrently (every waveform in
  /// roclk::signal is stateless).  The loop state continues from the
  /// previous call, as in run().
  void run_homogeneous(const signal::Waveform& waveform,
                       std::span<const double> static_mu_stages, double dt,
                       std::size_t cycles, StreamingReducer& reducer,
                       ThreadPool* pool);

  /// Arms one FaultSchedule per lane (an empty schedule leaves its lane
  /// fault-free), replayed against each lane's absolute cycle counter just
  /// like LoopSimulator::attach_faults.  Lane w of a faulted ensemble run
  /// stays bit-for-bit identical to a scalar LoopSimulator running the
  /// same schedule.  A vector group holding an armed lane (one whose
  /// schedule has events) stays on vectors, with only the isolation test
  /// added for its armed lanes, except on its fault cycles.  Per armed
  /// lane those are the first cycle after reset(), every cycle with an
  /// event active, and the first cycle after each run of active cycles
  /// (which retires the events); once a lane is isolated, every cycle.
  /// Fault cycles run lane by lane on the width-1 body, where the fault
  /// sites are compiled in for the armed lanes only, so fault-free lanes
  /// are untouched.
  void attach_faults(std::vector<fault::FaultSchedule> schedules);
  [[nodiscard]] bool has_faults() const { return faults_active_; }

  /// Vector-group cycles run lane by lane on the width-1 body because of
  /// faults (attach_faults) since the last reset(), summed over chunks.
  /// Tail lanes, which always run at width 1, are not counted.  Zero for a
  /// fault-free ensemble.
  [[nodiscard]] std::uint64_t fault_group_cycles() const;

  /// True when `lane` has been isolated (non-physical faulted signal; the
  /// lane froze at its last good cycle).  Cleared by reset().
  [[nodiscard]] bool isolated(std::size_t lane) const;
  /// Number of isolated lanes.
  [[nodiscard]] std::size_t isolated_count() const;

 private:
  // Lanes are processed in chunks of kChunkLanes: the chunk's interleaved
  // CDN ring plus its delay registers fit in L1, and chunks are the unit
  // of thread parallelism and of kernel calls.  32 lanes = 4 AVX-512 or
  // 8 AVX2 lane groups, each run through the call's cycles in turn.
  static constexpr std::size_t kChunkLanes = 32;

  // All lane arrays use simd::aligned_vector: every array starts on its
  // own cache line and is padded to whole lines, so vector loads never
  // split a line and two chunks running on different worker threads can
  // never false-share.
  struct Chunk {
    std::size_t first{0};
    std::size_t width{0};

    // z^-1 delay registers, one slot per lane.
    simd::aligned_vector<double> prev_lro;
    simd::aligned_vector<double> prev_t_dlv;
    simd::aligned_vector<double> prev_e_ro;
    simd::aligned_vector<double> prev_e_local;  // previous e_tdc - mu

    // Per-lane loop constants.
    simd::aligned_vector<double> setpoint;
    simd::aligned_vector<double> open_loop;  // resolved open-loop period
    simd::aligned_vector<std::int64_t> min_len;
    simd::aligned_vector<std::int64_t> max_len;
    simd::aligned_vector<double> min_len_d;
    simd::aligned_vector<double> max_len_d;

    // Interleaved CDN ring: slot s of lane w at ring[(s << row_shift) + w].
    // slots is a power of two covering the largest per-lane history, and
    // the row stride 2^row_shift the power of two at or above the width,
    // so the kernel's gathered look-back index is a mask and a shift, in
    // bounds for every lane.  Per-lane history/initial values keep the
    // boundary conditions (and the d-clamp) bit-identical to each lane's
    // own QuantizedTimeCdn.
    simd::aligned_vector<double> ring;
    std::size_t ring_slots{0};
    std::size_t slot_mask{0};
    int row_shift{0};
    std::uint64_t pushes{0};
    simd::aligned_vector<double> cdn_delay;
    simd::aligned_vector<double> cdn_history_d;  // history - 2, as double
    simd::aligned_vector<std::int64_t> cdn_history;
    simd::aligned_vector<double> cdn_initial;

    // Devirtualized IIR bank: 2 * taps rows, lane w of row r at
    // iir_state[r * iir_row_stride_ + w] (one stride for every chunk, so
    // one tap table serves them all).  The rows form a ring whose base
    // moves back one row per cycle, so advancing the shift register moves
    // no lane values; each state is written to row r and its twin r + taps,
    // so at base b (iir_head) the state W[n-1-i] is row b + i, contiguous
    // and never wrapped.
    simd::aligned_vector<std::int64_t> iir_state;
    simd::aligned_vector<std::int64_t> iir_prev_input;
    std::size_t iir_head{0};

    // Per-cycle output staging handed to a reducer that takes slices (each
    // group's slice points at its lanes); untouched when the reducer hands
    // out accumulators.
    simd::aligned_vector<double> tau;
    simd::aligned_vector<double> delta;
    simd::aligned_vector<double> lro;
    simd::aligned_vector<double> t_gen;
    simd::aligned_vector<double> t_dlv;
    simd::aligned_vector<std::uint8_t> violation;

    // True when every lane's set-point is exactly integral (precomputed;
    // feeds the IIR bank's integral-input deduction).
    bool integral_setpoints{true};

    // Fault replay state (populated only by attach_faults).  An isolated
    // lane is skipped by the kernel, so its staging entries keep repeating
    // the last good cycle — the exact analogue of LoopSimulator's frozen
    // record — and it folds nothing more into accumulators.  Bit w of
    // `armed` marks lane w's schedule as having events.  next_consult[w]
    // is the first cycle on which lane w's injector can report a fault (0
    // after reset: consult on the first cycle).  A group
    // holding armed lanes leaves the vector path only on cycles where one
    // of them is isolated or due a consult, and groups without armed
    // lanes never do.
    std::vector<fault::FaultInjector> injectors;
    simd::aligned_vector<std::uint8_t> isolated;
    simd::aligned_vector<std::uint64_t> next_consult;
    std::uint64_t armed{0};
    std::uint64_t fault_group_cycles{0};  // see fault_group_cycles()
  };
  static_assert(kChunkLanes <= 64, "Chunk::armed holds one bit per lane");

  /// The one scheduling decision of both run entry points: task(chunk)
  /// for every chunk, sequentially when `pool` is null, has at most one
  /// worker, or the ensemble has a single chunk; otherwise one
  /// parallel_for over the chunks.  A template (defined in the .cpp, its
  /// only user), so a sequential call wraps the task in nothing that
  /// allocates.
  template <class Task>
  void for_each_chunk(ThreadPool* pool, const Task& task);

  /// Runs `chunk` through the per-chunk kernel (ensemble_simd_kernel.hpp)
  /// on `backend`, or on the scalar pack when a config lies outside the
  /// vector backends' exact-conversion domain.  `args` arrives holding the
  /// inputs (block or homogeneous form), the cycle count and the first
  /// cycle's index within the run call; this fills in the rest.
  void run_one_chunk(Chunk& chunk, detail::SimdChunkArgs args,
                     StreamingReducer& reducer, simd::Backend backend);

  std::vector<LoopConfig> configs_;
  std::vector<std::unique_ptr<control::ControlBlock>> controllers_;
  sensor::Tdc tdc_;  // quantization shared by all lanes (validated)
  GeneratorMode mode_;
  bool quantize_lro_;
  cdn::DelayQuantization cdn_quantization_;

  // IIR fast path (all controllers are IirControlHardware with one shared
  // config): the power-of-two gains, devirtualized once per ensemble into
  // shift counts, with each tap's row offset in the bank.  The taps are
  // ordered into four runs (left shifts added, left shifts subtracted,
  // right shifts added, right shifts subtracted), which end at the three
  // iir_*_end indices and iir_tap_shifts_.size().  The bank's row stride
  // is the first (widest) chunk's width.
  bool iir_bank_active_{false};
  std::vector<detail::IirTapShift> iir_tap_shifts_;
  std::size_t iir_row_stride_{0};
  std::size_t iir_left_add_end_{0};
  std::size_t iir_left_sub_end_{0};
  std::size_t iir_right_add_end_{0};
  int iir_k_exp_shift_{0};
  int iir_k_star_exponent_{0};
  double iir_k_exp_{1.0};
  bool iir_aw_enabled_{false};
  std::int64_t iir_aw_min_{0};
  std::int64_t iir_aw_max_{0};

  bool faults_active_{false};
  // Static magnitudes (set-points, TDC range, length bounds) small enough
  // that every int64<->double conversion in the vector backends is exact;
  // checked once at construction (see kSimdMaxMagnitude in the .cpp).
  // Otherwise every chunk runs the scalar pack.
  bool simd_domain_ok_{false};
  std::vector<Chunk> chunks_;
};

}  // namespace roclk::core
