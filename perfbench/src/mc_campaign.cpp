// mc_campaign: the library's Monte-Carlo path with no service and no
// caches.  Each iteration runs a clean IIR ensemble pass and a
// fault-campaign pass over the same 1024 lanes x 20k cycles on a pool of
// (host threads - 1) workers; the caller thread drains chunks too.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "roclk/analysis/ensemble_metrics.hpp"
#include "roclk/analysis/metrics.hpp"
#include "roclk/common/thread_pool.hpp"
#include "roclk/control/iir_control.hpp"
#include "roclk/core/ensemble_simulator.hpp"
#include "roclk/core/loop_simulator.hpp"
#include "roclk/signal/waveform.hpp"

namespace perfbench {

namespace {

using roclk::ThreadPool;
using roclk::analysis::RunMetrics;
using roclk::core::EnsembleSimulator;

/// Lanes per pass the verification replays through run_batch.
constexpr std::size_t kVerifiedLanes = 16;

struct Campaign {
  McInputs inputs;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<EnsembleSimulator> clean;
  std::unique_ptr<EnsembleSimulator> faulted;
};

std::unique_ptr<EnsembleSimulator> make_ensemble(const McShape& shape) {
  roclk::core::LoopConfig loop;
  loop.setpoint_c = shape.setpoint_c;
  loop.cdn_delay_stages = shape.setpoint_c;
  loop.mode = roclk::core::GeneratorMode::kControlledRo;
  const roclk::control::IirControlHardware prototype{
      roclk::control::paper_iir_config()};
  return std::make_unique<EnsembleSimulator>(
      EnsembleSimulator::uniform(loop, &prototype, shape.lanes));
}

Campaign set_up(std::uint64_t seed, const McShape& shape) {
  Campaign c;
  c.inputs = mc_inputs(seed, shape);
  c.pool = std::make_unique<ThreadPool>(
      std::max<std::size_t>(1, host_threads() - 1));
  c.clean = make_ensemble(shape);
  c.faulted = make_ensemble(shape);
  c.faulted->attach_faults(c.inputs.schedules);
  return c;
}

std::vector<RunMetrics> run_pass(EnsembleSimulator& ensemble,
                                 const McShape& shape,
                                 const std::vector<double>& mus,
                                 ThreadPool* pool) {
  return roclk::analysis::evaluate_homogeneous_mc(
      ensemble, roclk::signal::SineWaveform{shape.amplitude, shape.period},
      mus, shape.cycles, shape.setpoint_c, {shape.fixed_period}, shape.skip,
      pool);
}

void add_metrics(Digest& digest, const std::vector<RunMetrics>& metrics) {
  for (const RunMetrics& m : metrics) {
    digest.add_double(m.safety_margin);
    digest.add_double(m.mean_period);
    digest.add_double(m.relative_adaptive_period);
    digest.add(m.violations);
    digest.add_double(m.tau_ripple);
  }
}

bool bitwise_equal(const RunMetrics& a, const RunMetrics& b) {
  Digest da;
  Digest db;
  add_metrics(da, {a});
  add_metrics(db, {b});
  return da.value() == db.value();
}

/// Replays one lane through the scalar reference (run_batch, plus the
/// lane's fault schedule) and evaluate_run; adds run_batch's wall time.
RunMetrics replay_lane(const McShape& shape, double mu,
                       const roclk::fault::FaultSchedule* schedule,
                       double& run_batch_s) {
  auto sim = roclk::core::make_iir_system(shape.setpoint_c, shape.setpoint_c);
  if (schedule != nullptr) sim.attach_faults(*schedule);
  const auto block =
      roclk::core::SimulationInputs::harmonic(shape.amplitude, shape.period,
                                              mu)
          .sample(shape.cycles, shape.setpoint_c);
  const auto start = Clock::now();
  const auto trace = sim.run_batch(block);
  run_batch_s += seconds_since(start);
  return roclk::analysis::evaluate_run(trace, shape.setpoint_c,
                                       shape.fixed_period, shape.skip);
}

}  // namespace

int run_mc_campaign(const Options& options) {
  const McShape shape;
  const double lane_cycles =
      static_cast<double>(shape.lanes) * static_cast<double>(shape.cycles);

  std::vector<double> setup_s;
  Campaign campaign;
  for (int r = 0; r < kSetupRepeats; ++r) {
    campaign = Campaign{};
    const auto start = Clock::now();
    campaign = set_up(options.seed, shape);
    setup_s.push_back(seconds_since(start));
  }
  if (options.mode == "setup") {
    JsonLine json = record_header(options, campaign.pool->size() + 1);
    json.num("setup_s", interquartile_mean(setup_s))
        .array("setup_samples_s", setup_s);
    json.print();
    return 0;
  }
  // One untimed warm-up iteration: a fresh process's first passes run up
  // to twice as slow (first touch of the lane state, idle pool threads),
  // a cost a campaign pays once, not per iteration.
  (void)run_pass(*campaign.clean, shape, campaign.inputs.mus,
                 campaign.pool.get());
  (void)run_pass(*campaign.faulted, shape, campaign.inputs.mus,
                 campaign.pool.get());

  SpanLog spans;
  std::vector<double> iteration_us;
  std::vector<double> rates;
  std::vector<double> clean_rates;
  std::vector<double> faulted_rates;
  std::vector<RunMetrics> clean;
  std::vector<RunMetrics> faulted;
  std::uint64_t digest = 0;
  std::size_t isolated = 0;
  std::uint64_t diverged = 0;  // iterations whose outputs differ from the first
  std::size_t iterations = 0;
  const auto loop_start = Clock::now();
  do {
    const std::int64_t t0 = now_ns();
    clean = run_pass(*campaign.clean, shape, campaign.inputs.mus,
                     campaign.pool.get());
    const std::int64_t t1 = now_ns();
    faulted = run_pass(*campaign.faulted, shape, campaign.inputs.mus,
                       campaign.pool.get());
    const std::int64_t t2 = now_ns();
    Digest d;
    add_metrics(d, clean);
    add_metrics(d, faulted);
    const std::size_t iso = campaign.faulted->isolated_count();
    d.add(iso);
    const std::int64_t t3 = now_ns();
    if (iterations == 0) {
      digest = d.value();
      isolated = iso;
    } else if (d.value() != digest || iso != isolated) {
      ++diverged;
    }
    const double clean_s = static_cast<double>(t1 - t0) / 1e9;
    const double faulted_s = static_cast<double>(t2 - t1) / 1e9;
    iteration_us.push_back(static_cast<double>(t2 - t0) / 1e3);
    rates.push_back(2.0 * lane_cycles / (clean_s + faulted_s));
    clean_rates.push_back(lane_cycles / clean_s);
    faulted_rates.push_back(lane_cycles / faulted_s);
    if (options.trace) {
      const std::int64_t it = spans.add("mc.iteration", iterations, -1, {t0, t3});
      spans.add("core.ensemble.clean", iterations, it, {t0, t1});
      spans.add("core.ensemble.faulted", iterations, it, {t1, t2});
    }
    ++iterations;
  } while (seconds_since(loop_start) < options.seconds);
  const double wall_s = seconds_since(loop_start);
  const double peak_rss = peak_rss_mib().value_or(0.0);

  // Verification, outside the timed window: sampled lanes of both passes
  // must equal the scalar reference bit for bit.
  double run_batch_s = 0.0;
  std::uint64_t mismatched_lanes = 0;
  std::size_t verified = 0;
  for (const bool with_faults : {false, true}) {
    for (const std::size_t w :
         mc_sample_lanes(options.seed, shape, kVerifiedLanes, with_faults)) {
      const RunMetrics expected = replay_lane(
          shape, campaign.inputs.mus[w],
          with_faults ? &campaign.inputs.schedules[w] : nullptr, run_batch_s);
      const RunMetrics& got = with_faults ? faulted[w] : clean[w];
      if (!bitwise_equal(expected, got)) ++mismatched_lanes;
      ++verified;
    }
  }

  // A run holds ~20 iterations: too few for a p99 with ten beyond it, and
  // their maximum is one host hiccup.  The tail reported is the slowest
  // iteration that has ten slower ones.
  const Quantile p50 = nearest_rank(iteration_us, 1, 2);
  const Quantile p99 = resolved_tail(iteration_us, 99, 100);

  JsonLine json = record_header(options, campaign.pool->size() + 1);
  json.num("setup_s", interquartile_mean(setup_s))
      .num("lane_cycles_per_s", median(rates))
      .num("throughput_rps", static_cast<double>(iterations) / wall_s)
      .num("latency_p50_us", p50.value)
      .num("latency_p99_us", p99.value)
      .count("latency_samples", p99.samples)
      .count("latency_p99_beyond", p99.beyond)
      .num("peak_rss_mb", peak_rss)
      .count("attempted", iterations + verified)
      .count("failed", diverged + mismatched_lanes)
      .count("diverged_iterations", diverged)
      .count("mismatched_lanes", mismatched_lanes)
      .str("digest", hex64(digest))
      .count("isolated_lanes", isolated)
      .num("wall_s", wall_s)
      .array("setup_samples_s", setup_s);
  add_memo_stats(json);

  if (options.trace) {
    // The thread-pool rung: the same clean pass with no pool at all.
    const auto start = Clock::now();
    const std::vector<RunMetrics> serial =
        run_pass(*campaign.clean, shape, campaign.inputs.mus, nullptr);
    const double serial_s = seconds_since(start);
    Digest a;
    Digest b;
    add_metrics(a, serial);
    add_metrics(b, clean);
    json.num("core_ensemble_clean_lane_cycles_per_s", median(clean_rates))
        .num("core_ensemble_faulted_lane_cycles_per_s", median(faulted_rates))
        .num("core_loop_cycles_per_s",
             static_cast<double>(verified * shape.cycles) / run_batch_s)
        .num("common_thread_pool_speedup",
             serial_s / (lane_cycles / median(clean_rates)))
        .flag("serial_pass_identical", a.value() == b.value());
    if (!spans.write(options.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   options.spans_path.c_str());
      return 1;
    }
  }
  json.print();
  return 0;
}

}  // namespace perfbench
