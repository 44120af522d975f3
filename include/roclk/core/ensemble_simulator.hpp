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
//  * an ensemble has one controller: an IirControlHardware is
//    devirtualized once into a lane-strided integer bank ([tap][lane]),
//    mirroring run_batch's fast path; any other controller is cloned per
//    lane and each clone stepped on the lane values the vector computed;
//  * each chunk's lane state is one cache-line-aligned block
//    (simd::LaneBlock), laid out by detail::ChunkLanes, the struct the
//    kernel reads;
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

/// How an ensemble's lanes turn delta into l_RO.
enum class ControlKind {
  kOpenLoop,  // free-running RO or fixed clock: the lane's open-loop period
  kIirBank,   // the devirtualized integer IIR bank, on lane vectors
  kVirtual,   // one ControlBlock per lane, stepped on extracted lane values
};

/// One feedback tap of the devirtualized IIR bank as the kernel applies
/// it: where its state row lies from the bank's ring base (its age in the
/// newest-first tap order, times the bank's row stride) and the magnitude
/// of its power-of-two gain's exponent, a shift count.  Both are 64-bit,
/// so the kernel broadcasts a shift count straight from memory into a lane
/// vector of int64.
struct IirTapShift {
  std::int64_t offset{0};
  std::int64_t shift{0};
};

/// The ensemble-wide constants the kernel reads, built once at
/// construction: every lane shares them (validated).
struct KernelConsts {
  bool fixed_clock{false};
  bool quantize_lro{true};
  sensor::Quantization tdc_q{sensor::Quantization::kNearest};
  cdn::DelayQuantization cdn_q{cdn::DelayQuantization::kRound};
  double tdc_mismatch{0.0};
  double tdc_max{0.0};

  ControlKind control{ControlKind::kOpenLoop};
  // kVirtual: each lane's own ControlBlock, indexed by ensemble lane.
  const std::unique_ptr<control::ControlBlock>* controllers{nullptr};
  // kIirBank: the IirControlHardware's power-of-two gains as shift counts.
  // The feedback taps, each with its row offset, come in four runs: left
  // shifts added, left shifts subtracted, right shifts added, right shifts
  // subtracted; the runs end at left_add_end, left_sub_end, right_add_end
  // and taps.
  const IirTapShift* tap_shifts{nullptr};
  std::size_t left_add_end{0};
  std::size_t left_sub_end{0};
  std::size_t right_add_end{0};
  std::size_t taps{0};
  std::size_t row_stride{0};  // lanes per bank row: the widest chunk's width
  int k_exp_shift{0};         // log2 k_exp, >= 0 (k_exp >= 1)
  int k_star_exponent{0};     // log2 k*, either sign (k* > 0)
  // IirControlHardware's anti-windup clamp, pre-resolved to integers.
  bool aw_enabled{false};
  std::int64_t aw_min{0};
  std::int64_t aw_max{0};
};

/// One chunk of lanes as the kernel reads it: its geometry, its lane
/// arrays, all carved from one simd::LaneBlock (bind_arrays states the
/// layout), and its scalar state.  Each array starts on its own cache line
/// and is padded to whole lines, so vector loads never split a line and
/// two chunks running on different worker threads never share one.
struct ChunkLanes {
  std::size_t first{0};  // the chunk's first ensemble lane
  std::size_t width{0};

  // z^-1 delay registers, one slot per lane.
  double* prev_lro{nullptr};
  double* prev_t_dlv{nullptr};
  double* prev_e_ro{nullptr};
  double* prev_e_local{nullptr};  // previous e_tdc - mu

  // Per-lane loop constants.
  double* setpoint{nullptr};
  double* open_loop{nullptr};  // resolved open-loop period
  std::int64_t* min_len{nullptr};
  std::int64_t* max_len{nullptr};
  double* min_len_d{nullptr};
  double* max_len_d{nullptr};

  // Interleaved CDN ring: slot s of lane w at ring[(s << row_shift) + w].
  // ring_slots is a power of two covering the largest per-lane history,
  // and the row stride 2^row_shift the power of two at or above the width,
  // so the kernel's gathered look-back index is a mask and a shift, in
  // bounds for every lane.  Per-lane history/initial values keep the
  // boundary conditions (and the d-clamp) bit-identical to each lane's
  // own QuantizedTimeCdn.
  double* ring{nullptr};
  std::size_t ring_slots{0};
  std::size_t slot_mask{0};
  int row_shift{0};
  std::uint64_t pushes{0};  // absolute push counter
  double* cdn_delay{nullptr};
  double* cdn_history_d{nullptr};  // history - 2, as double
  std::int64_t* cdn_history{nullptr};
  double* cdn_initial{nullptr};

  // Devirtualized IIR bank: 2 * taps rows, lane w of row r at
  // iir_bank[r * row_stride + w] (one stride for every chunk, so one tap
  // table serves them all).  The rows form a ring whose base moves back
  // one row per cycle, so advancing the shift register moves no lane
  // values; each state is written to row r and its twin r + taps, so at
  // base b (iir_head) the state W[n-1-i] is row b + i, contiguous and
  // never wrapped.
  std::int64_t* iir_bank{nullptr};
  std::int64_t* iir_prev_input{nullptr};
  std::size_t iir_head{0};
  // Every set-point is an integer and the TDC floors or rounds, so delta
  // is integral and the bank input needs no rounding (off a fault cycle).
  bool integral_input{false};

  // Per-cycle output staging handed to a reducer that takes slices (each
  // group's slice points at its lanes); untouched when the reducer hands
  // out accumulators.
  double* tau{nullptr};
  double* delta{nullptr};
  double* lro{nullptr};
  double* t_gen{nullptr};
  double* t_dlv{nullptr};
  std::uint8_t* violation{nullptr};

  // Fault replay state (armed by attach_faults; `injectors` is null on a
  // fault-free ensemble).  An isolated lane is skipped by the kernel, so
  // its staging entries keep repeating the last good cycle, the exact
  // analogue of LoopSimulator's frozen record, and it folds nothing more
  // into accumulators.  Bit w of `armed` marks lane w's schedule as having
  // events.  next_consult[w] is the first cycle on which lane w's injector
  // can report a fault: the cycle after one that reported a fault, else
  // the start of its next event (0 after reset: consult on the first
  // cycle).  A group holding armed lanes leaves the vector path only on
  // cycles where one of them is isolated or due a consult, and groups
  // without armed lanes never do.
  fault::FaultInjector* injectors{nullptr};
  std::uint8_t* isolated{nullptr};
  std::uint64_t* next_consult{nullptr};
  std::uint64_t armed{0};
  std::uint64_t fault_group_cycles{0};  // see fault_group_cycles()

  /// Calls bind(array, entries) for every lane array, in block order: the
  /// one statement of a chunk's layout, which simd::LaneBlock runs to size
  /// the block and to carve it.  Needs width, ring_slots and row_shift;
  /// the IIR bank holds `bank_entries` (none without the bank).
  template <class Bind>
  void bind_arrays(Bind&& bind, std::size_t bank_entries) {
    bind(prev_lro, width);
    bind(prev_t_dlv, width);
    bind(prev_e_ro, width);
    bind(prev_e_local, width);
    bind(setpoint, width);
    bind(open_loop, width);
    bind(min_len, width);
    bind(max_len, width);
    bind(min_len_d, width);
    bind(max_len_d, width);
    bind(ring, ring_slots << row_shift);
    bind(cdn_delay, width);
    bind(cdn_history_d, width);
    bind(cdn_history, width);
    bind(cdn_initial, width);
    bind(iir_bank, bank_entries);
    bind(iir_prev_input, width);
    bind(tau, width);
    bind(delta, width);
    bind(lro, width);
    bind(t_gen, width);
    bind(t_dlv, width);
    bind(violation, width);
    bind(isolated, width);
    bind(next_consult, width);
  }
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
/// The arrays share one simd::LaneBlock; each starts on its own cache line
/// and a chunk covers 32 lanes, so chunks running on different threads
/// never share a line.
struct LaneAccumulators {
  LaneAccumulators(std::size_t lanes, std::size_t skip);

  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  double* worst_delta{nullptr};
  double* mean{nullptr};
  double* count{nullptr};  // folded cycles
  double* tau_min{nullptr};
  double* tau_max{nullptr};
  double* violations{nullptr};
  std::size_t* seen{nullptr};  // cycles run, skipped included
  std::size_t skip{0};         // cycles seen before the fold

 private:
  std::size_t lanes_{0};
  simd::LaneBlock block_;
};

/// Streaming consumer of ensemble results.  A reducer whose accumulators()
/// is null gets accumulate() once per cycle per lane group: a kernel call
/// runs its chunk's groups one after another, each through all of the
/// kernel call's cycles (run() makes one kernel call per chunk,
/// run_homogeneous one per chunk per segment), so each group's slices
/// arrive with cycles 0..n-1 in order, the groups of a chunk cover its
/// lanes once, and within one kernel call slices of different groups do
/// not interleave by cycle.  One that returns accumulators gets no call
/// at all: the kernel folds into them (see LaneAccumulators).  When a run
/// call has a pool, each chunk runs as one pool task per fork/join (one
/// per run() call, one per run_homogeneous segment), so chunks covering
/// disjoint lane ranges may call accumulate() or fold concurrently, and a
/// chunk's successive segments may run on different threads, ordered by
/// the join between them — implementations must only touch per-lane
/// state (as TraceReducer does).
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
  /// may vary per lane.  Every lane runs the one `controller`: the paper's
  /// controller is one fixed circuit, so a controlled ensemble shares it
  /// (null in the open-loop modes).  An IirControlHardware becomes the
  /// lane-vector integer bank, with no per-lane objects; any other
  /// controller is cloned per lane and each clone stepped on its lane.  The
  /// prototype is only read during construction.
  EnsembleSimulator(std::vector<LoopConfig> lane_configs,
                    const control::ControlBlock* controller);

  /// W lanes of one scalar configuration.
  [[nodiscard]] static EnsembleSimulator uniform(
      const LoopConfig& config, const control::ControlBlock* prototype,
      std::size_t width);

  [[nodiscard]] static Status validate(
      std::span<const LoopConfig> lane_configs,
      const control::ControlBlock* controller);

  /// Restores every lane to its error-free equilibrium (same semantics as
  /// LoopSimulator::reset per lane).
  void reset();

  [[nodiscard]] std::size_t width() const { return configs_.size(); }
  [[nodiscard]] const LoopConfig& lane_config(std::size_t lane) const {
    return configs_.at(lane);
  }
  /// True when every lane runs the devirtualized integer-IIR bank.
  [[nodiscard]] bool uses_iir_fast_path() const {
    return consts_.control == detail::ControlKind::kIirBank;
  }

  /// Runs block.cycles cycles on every lane, streaming per-cycle results
  /// into `reducer` (slices, or the fold into its accumulators).
  /// block.width must equal width().  `pool` distributes lane chunks over
  /// its workers (nullptr = strictly sequential); per-lane results are
  /// bitwise identical for every choice of pool, which the
  /// scheduling-invariance gates hold.  Like run_batch, successive calls
  /// continue from the current loop state; call reset() to start a fresh
  /// run.
  void run(const InputBlock& block, StreamingReducer& reducer,
           ThreadPool* pool = nullptr);

  /// The homogeneous Monte-Carlo run: `cycles` cycles in which every lane
  /// sees `waveform` sampled at t = k * dt (k counted from 0 in this
  /// call) on both e_ro and e_tdc, plus its own static mismatch
  /// static_mu_stages[w] — bitwise the same as running through run() the
  /// block sample_ensemble makes of one SimulationInputs::homogeneous(
  /// waveform, static_mu_stages[w]) per lane.  The call runs
  /// segment-major: the calling thread samples the next segment of at
  /// most 8192 cycles (64 KiB, on its stack) once, then every chunk runs
  /// over it, one pool task and one kernel call per chunk, while the
  /// kernel broadcasts each sample to the chunk's lanes and reads their
  /// mu straight from `static_mu_stages`.  So waveform.at() is called
  /// exactly `cycles` times at any width, only on the calling thread; a
  /// pooled call pays one fork/join per segment, and memory does not grow
  /// with `cycles`.  The loop state continues from the previous call, as
  /// in run().
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

  struct Chunk {
    detail::ChunkLanes lanes;
    simd::LaneBlock block;  // every array of `lanes`
    // Populated by attach_faults; lanes.injectors points here.
    std::vector<fault::FaultInjector> injectors;
  };
  static_assert(kChunkLanes <= 64, "ChunkLanes::armed holds one bit per lane");

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
  /// cycle's index within the run call; this adds the ensemble, the chunk
  /// and the reducer.
  void run_one_chunk(Chunk& chunk, detail::SimdChunkArgs args,
                     StreamingReducer& reducer, simd::Backend backend);

  std::vector<LoopConfig> configs_;
  // One clone of the controller per lane, on the virtual route only.
  std::vector<std::unique_ptr<control::ControlBlock>> controllers_;
  std::vector<detail::IirTapShift> tap_shifts_;  // consts_.tap_shifts
  detail::KernelConsts consts_;
  bool faults_active_{false};
  // Static magnitudes (set-points, TDC range, length bounds) small enough
  // that every int64<->double conversion in the vector backends is exact;
  // checked once at construction (see kSimdMaxMagnitude in the .cpp).
  // Otherwise every chunk runs the scalar pack.
  bool simd_domain_ok_{false};
  std::vector<Chunk> chunks_;
};

}  // namespace roclk::core
