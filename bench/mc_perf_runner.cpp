// P4 — sharded Monte-Carlo performance tracker.
//
// Times the yield Monte-Carlo (analysis/yield: D2D + WID + RND on every
// path of every fabricated chip) along the splittable-RNG trajectory:
//  * mc_sharded     — the single-stream reference execution (strictly
//    sequential, pool = nullptr) vs the same keyed sampler sharded across
//    ThreadPool::shared().
//  * mc_threads_tN  — the sequential reference vs a local N-thread pool,
//    for N in {1, 2, 4, 8}: the multi-thread scaling curve.
//
// Because every chip draws from its own StreamKey substream, all paths
// must agree *bitwise* per chip; the run aborts without recording if any
// pool size diverges from the sequential reference.
//
// Usage: run from the repository root; appends a run record to
// BENCH_sweeps.json.  An optional argv[1] overrides the output path;
// --smoke shrinks the study for CI.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "roclk/analysis/yield.hpp"
#include "roclk/common/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

volatile double g_sink = 0.0;  // defeats whole-run elision

/// Best-of-reps wall time (minimum is robust against scheduler noise).
template <class Fn>
double best_of(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const auto result = fn();
    best = std::min(best, seconds_since(start));
    g_sink = g_sink + result.back();
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

  roclk::analysis::YieldConfig config;
  config.chips = smoke ? 64 : 2000;
  config.paths = 64;
  config.seed = 20260808;
  const int reps = smoke ? 1 : 5;

  const int hw_threads =
      static_cast<int>(roclk::ThreadPool::shared().size()) + 1;
  std::printf("[mc] %zu chips x %zu paths, %d hardware threads\n",
              config.chips, config.paths, hw_threads);

  // Equivalence gate first: every pool size must reproduce the sequential
  // single-stream samples bit for bit, or the speedups are meaningless.
  const auto reference =
      roclk::analysis::sample_worst_paths(config, nullptr);
  bool identical = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    roclk::ThreadPool pool{threads};
    if (roclk::analysis::sample_worst_paths(config, &pool) != reference) {
      std::fprintf(stderr, "pool of %zu diverges from sequential\n", threads);
      identical = false;
    }
  }
  if (roclk::analysis::sample_worst_paths(
          config, &roclk::ThreadPool::shared()) != reference) {
    std::fprintf(stderr, "shared pool diverges from sequential\n");
    identical = false;
  }
  roclk::bench::shape_check(
      identical, "sharded yield Monte-Carlo bitwise identical to the "
                 "sequential single-stream reference at every pool size");
  if (!identical) return 1;

  const double sequential_s = best_of(reps, [&] {
    return roclk::analysis::sample_worst_paths(config, nullptr);
  });
  const double shared_s = best_of(reps, [&] {
    return roclk::analysis::sample_worst_paths(config,
                                               &roclk::ThreadPool::shared());
  });

  const double items = static_cast<double>(config.chips);
  const std::string suffix = smoke ? "_smoke" : "";
  std::vector<roclk::bench::PerfEntry> entries;
  entries.push_back({"mc_sharded" + suffix, "chips", items / sequential_s,
                     items / shared_s, hw_threads, "scalar"});

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    roclk::ThreadPool pool{threads};
    const double pool_s = best_of(reps, [&] {
      return roclk::analysis::sample_worst_paths(config, &pool);
    });
    char name[32];
    std::snprintf(name, sizeof name, "mc_threads_t%zu%s", threads,
                  suffix.c_str());
    entries.push_back({name, "chips", items / sequential_s, items / pool_s,
                       static_cast<int>(threads) + 1, "scalar"});
  }

  char notes[512];
  std::snprintf(
      notes, sizeof notes,
      "%zu-chip x %zu-path yield Monte-Carlo on splittable CounterRng "
      "streams. mc_sharded: sequential single-stream reference vs "
      "ThreadPool::shared(); mc_threads_tN: reference vs a local N-worker "
      "pool (the caller also claims ranges, so tN uses N+1 threads). "
      "Per-chip samples verified bitwise identical across all pool sizes "
      "before timing; best of %d reps.%s",
      config.chips, config.paths, reps,
      smoke ? " Smoke-sized run; rates are not comparable." : "");
  if (!roclk::bench::append_perf_run(out_path, "mc_perf_runner", notes,
                                     entries)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  for (const auto& e : entries) {
    std::printf(
        "%-18s before %10.0f %s/s   after %10.0f %s/s   (%.2fx, %d thr)\n",
        e.name.c_str(), e.before_items_per_sec, e.unit.c_str(),
        e.after_items_per_sec, e.unit.c_str(), e.speedup(), e.threads);
  }
  std::printf("[json] %s\n", out_path.c_str());
  return roclk::bench::shape_exit_code();
}
