// P3 — ensemble-scale Monte-Carlo performance tracker.
//
// Times a 256-trial x 4000-cycle Monte-Carlo (the paper's IIR system under
// a harmonic HoDV, one static mismatch per trial) along the optimisation
// trajectory:
//  * mc_ensemble      — the PR 1 per-trial pipeline (one LoopSimulator per
//    trial, full trace, evaluate_run) vs the lane-parallel ensemble
//    pipeline (streamed sampling + EnsembleSimulator + MetricsReducer).
//  * ensemble_simd    — the ensemble pipeline with the SIMD backend forced
//    to the portable scalar pack vs the native vector backend, both
//    single-threaded: the pure vectorization speedup.
//  * ensemble_threads — the native-backend ensemble single-threaded vs
//    tiled across ThreadPool::shared(): the threading speedup.
//
// All paths must agree bit-for-bit per lane (the ensemble engine's core
// guarantee, on every backend); the run aborts without recording if any
// pair diverges.
//
// Usage: run from the repository root; appends a run record (full git SHA,
// UTC timestamp, hardware threads, per-entry thread count and SIMD
// backend) to BENCH_sweeps.json.  An optional argv[1] overrides the output
// path; --smoke shrinks the study for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "roclk/analysis/ensemble_metrics.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/common/simd.hpp"
#include "roclk/common/thread_pool.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/ensemble_simulator.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/signal/waveform.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using roclk::analysis::RunMetrics;
namespace simd = roclk::simd;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

volatile double g_sink = 0.0;  // defeats whole-run elision

/// Scoped simd-backend override (restores env/native resolution on exit).
struct BackendOverride {
  explicit BackendOverride(simd::Backend backend) {
    simd::set_backend_override(backend);
  }
  ~BackendOverride() { simd::set_backend_override(std::nullopt); }
  BackendOverride(const BackendOverride&) = delete;
  BackendOverride& operator=(const BackendOverride&) = delete;
};

struct Study {
  std::size_t trials{256};
  std::size_t cycles{4000};
  std::size_t skip{1000};
  double setpoint_c{64.0};
  double amplitude{12.8};  // 0.2 c, the paper's HoDV amplitude
  double period{3200.0};   // T_e = 50 c
  double fixed_period{76.8};  // c * 1.2, the HoDV design margin
  /// One static mismatch per trial, spread over +-0.1 c.
  [[nodiscard]] std::vector<double> mus() const {
    std::vector<double> out(trials);
    for (std::size_t w = 0; w < trials; ++w) {
      const double frac = trials > 1
          ? static_cast<double>(w) / static_cast<double>(trials - 1)
          : 0.5;
      out[w] = setpoint_c * (-0.1 + 0.2 * frac);
    }
    return out;
  }
};

/// PR 1 Monte-Carlo: sample, simulate and evaluate one trial at a time.
std::vector<RunMetrics> run_per_trial(const Study& s,
                                      const std::vector<double>& mus) {
  std::vector<RunMetrics> out(mus.size());
  for (std::size_t w = 0; w < mus.size(); ++w) {
    const auto inputs =
        roclk::core::SimulationInputs::harmonic(s.amplitude, s.period, mus[w]);
    const auto block = inputs.sample(s.cycles, s.setpoint_c);
    auto sim = roclk::core::make_iir_system(s.setpoint_c, s.setpoint_c);
    const auto trace = sim.run_batch(block);
    out[w] = roclk::analysis::evaluate_run(trace, s.setpoint_c,
                                           s.fixed_period, s.skip);
  }
  return out;
}

/// Ensemble Monte-Carlo: tile-streamed broadcast sampling, lane-parallel
/// kernel, streaming metrics.
std::vector<RunMetrics> run_ensemble(const Study& s,
                                     const std::vector<double>& mus,
                                     bool parallel) {
  roclk::core::LoopConfig loop;
  loop.setpoint_c = s.setpoint_c;
  loop.cdn_delay_stages = s.setpoint_c;
  loop.mode = roclk::core::GeneratorMode::kControlledRo;
  const roclk::control::IirControlHardware prototype{
      roclk::control::paper_iir_config()};
  auto ensemble =
      roclk::core::EnsembleSimulator::uniform(loop, &prototype, mus.size());
  return roclk::analysis::evaluate_homogeneous_mc(
      ensemble, roclk::signal::SineWaveform{s.amplitude, s.period}, mus,
      s.cycles, s.setpoint_c, {s.fixed_period}, s.skip, parallel);
}

/// Ensemble Monte-Carlo on an explicit pool (nullptr = sequential): the
/// thread-scaling sweep's execution path.
std::vector<RunMetrics> run_ensemble_pool(const Study& s,
                                          const std::vector<double>& mus,
                                          roclk::ThreadPool* pool) {
  roclk::core::LoopConfig loop;
  loop.setpoint_c = s.setpoint_c;
  loop.cdn_delay_stages = s.setpoint_c;
  loop.mode = roclk::core::GeneratorMode::kControlledRo;
  const roclk::control::IirControlHardware prototype{
      roclk::control::paper_iir_config()};
  auto ensemble =
      roclk::core::EnsembleSimulator::uniform(loop, &prototype, mus.size());
  return roclk::analysis::evaluate_homogeneous_mc(
      ensemble, roclk::signal::SineWaveform{s.amplitude, s.period}, mus,
      s.cycles, s.setpoint_c, {s.fixed_period}, s.skip, pool);
}

bool bitwise_equal(const std::vector<RunMetrics>& a,
                   const std::vector<RunMetrics>& b, const char* label) {
  if (a.size() != b.size()) return false;
  for (std::size_t w = 0; w < a.size(); ++w) {
    if (a[w].safety_margin != b[w].safety_margin ||
        a[w].mean_period != b[w].mean_period ||
        a[w].relative_adaptive_period != b[w].relative_adaptive_period ||
        a[w].violations != b[w].violations ||
        a[w].tau_ripple != b[w].tau_ripple) {
      std::fprintf(stderr, "%s: lane %zu metrics diverge\n", label, w);
      return false;
    }
  }
  return true;
}

/// Best-of-reps wall time of one configuration (minimum is robust against
/// scheduler and frequency noise).
template <class Fn>
double best_of(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const auto result = fn();
    best = std::min(best, seconds_since(start));
    g_sink = g_sink + result.back().mean_period;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sweeps.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  Study s;
  int reps = 5;
  if (smoke) {
    s.trials = 8;
    s.cycles = 1000;
    s.skip = 250;
    reps = 1;
  }
  const auto mus = s.mus();

  const simd::Backend native = simd::native_backend();
  const int pool_threads =
      static_cast<int>(roclk::ThreadPool::shared().size()) + 1;
  std::printf("[simd] native backend: %s (dispatching: %s), %d pool threads\n",
              simd::to_string(native), simd::to_string(simd::active_backend()),
              pool_threads);

  // Equivalence gates first: the speedups are only worth recording if
  // every path reproduced the per-trial metrics exactly, on the forced
  // scalar pack AND the native vector backend.
  const auto per_trial_metrics = run_per_trial(s, mus);
  std::vector<RunMetrics> scalar_pack_metrics;
  {
    BackendOverride forced{simd::Backend::kScalar};
    scalar_pack_metrics = run_ensemble(s, mus, /*parallel=*/false);
  }
  std::vector<RunMetrics> native_metrics;
  {
    BackendOverride forced{native};
    native_metrics = run_ensemble(s, mus, /*parallel=*/true);
  }
  const bool identical =
      bitwise_equal(per_trial_metrics, scalar_pack_metrics, "scalar pack") &&
      bitwise_equal(per_trial_metrics, native_metrics, "native backend");
  roclk::bench::shape_check(
      identical, "ensemble per-lane metrics bit-identical to per-trial "
                 "run_batch + evaluate_run on scalar AND native backends");
  if (!identical) return 1;

  double per_trial_s = best_of(reps, [&] { return run_per_trial(s, mus); });
  double scalar_1t_s = 0.0;
  {
    BackendOverride forced{simd::Backend::kScalar};
    scalar_1t_s =
        best_of(reps, [&] { return run_ensemble(s, mus, false); });
  }
  double native_1t_s = 0.0;
  double native_nt_s = 0.0;
  {
    BackendOverride forced{native};
    native_1t_s =
        best_of(reps, [&] { return run_ensemble(s, mus, false); });
    native_nt_s =
        best_of(reps, [&] { return run_ensemble(s, mus, true); });
  }

  const double items = static_cast<double>(s.trials) *
                       static_cast<double>(s.cycles);
  const std::string suffix = smoke ? "_smoke" : "_256x4k";
  std::vector<roclk::bench::PerfEntry> entries;
  entries.push_back({"mc_ensemble" + suffix, "lane_cycles",
                     items / per_trial_s, items / native_nt_s, pool_threads,
                     simd::to_string(native)});
  entries.push_back({"ensemble_simd" + suffix, "lane_cycles",
                     items / scalar_1t_s, items / native_1t_s, 1,
                     simd::to_string(native)});
  entries.push_back({"ensemble_threads" + suffix, "lane_cycles",
                     items / native_1t_s, items / native_nt_s, pool_threads,
                     simd::to_string(native)});

  // Thread-scaling sweep: the sequential ensemble vs a local pool of 1, 2,
  // 4 and 8 workers (the caller claims ranges too, so tN runs on N+1
  // threads).  Per-lane metrics are scheduling-invariant, so the sweep
  // needs no further equivalence gating beyond the checks above.
  {
    BackendOverride forced{native};
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      roclk::ThreadPool pool{threads};
      const double pool_s = best_of(
          reps, [&] { return run_ensemble_pool(s, mus, &pool); });
      char name[48];
      std::snprintf(name, sizeof name, "ensemble_threads_t%zu%s", threads,
                    suffix.c_str());
      entries.push_back({name, "lane_cycles", items / native_1t_s,
                         items / pool_s, static_cast<int>(threads) + 1,
                         simd::to_string(native)});
    }
  }

  char notes[512];
  std::snprintf(
      notes, sizeof notes,
      "%zu-trial x %zu-cycle IIR Monte-Carlo under harmonic HoDV. "
      "mc_ensemble: PR 1 per-trial path vs threaded native-SIMD ensemble; "
      "ensemble_simd: forced-scalar pack vs native backend, 1 thread; "
      "ensemble_threads: native backend, 1 thread vs pool; "
      "ensemble_threads_tN: 1 thread vs a local N-worker pool (caller "
      "claims ranges too, so tN uses N+1 threads). Per-lane metrics "
      "verified bit-identical on both backends before timing; "
      "best of %d reps.%s",
      s.trials, s.cycles, reps,
      smoke ? " Smoke-sized run; rates are not comparable." : "");
  if (!roclk::bench::append_perf_run(out_path, "ensemble_perf_runner", notes,
                                     entries)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  for (const auto& e : entries) {
    std::printf(
        "%-24s before %12.0f %s/s   after %12.0f %s/s   (%.2fx, %d thr, %s)\n",
        e.name.c_str(), e.before_items_per_sec, e.unit.c_str(),
        e.after_items_per_sec, e.unit.c_str(), e.speedup(), e.threads,
        e.simd_backend.c_str());
  }
  std::printf("[json] %s\n", out_path.c_str());
  return roclk::bench::shape_exit_code();
}
