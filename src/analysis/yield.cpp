#include "roclk/analysis/yield.hpp"

#include <algorithm>
#include <cmath>

#include "roclk/common/sharded_mc.hpp"
#include "roclk/common/stats.hpp"
#include "roclk/common/stream_key.hpp"
#include "roclk/common/thread_pool.hpp"
#include "roclk/variation/sources.hpp"

namespace roclk::analysis {

namespace {

/// Slowest-path delay (stages) of one fabricated chip.  `chip_key` is the
/// chip's own stream: every variation mechanism draws from a named child,
/// and each path's geometry and device noise from their own indexed
/// substreams, so the sample is a pure function of the key — no draw-order
/// coupling between chips, mechanisms or paths.  Path i is the i-th path
/// of Floorplan::random_paths(paths, depth, chip_key.split("floorplan")),
/// placed without building the floorplan.
double sample_worst_path(const YieldConfig& config, StreamKey chip_key) {
  CounterRng d2d_rng{chip_key.split("d2d")};
  const double d2d = d2d_rng.normal(0.0, config.d2d_sigma);
  const variation::WithinDieProcess wid{config.wid_sigma,
                                        chip_key.split("wid")};
  const StreamKey floorplan_key = chip_key.split("floorplan");
  const StreamKey rnd_key = chip_key.split("rnd");

  double worst = 0.0;
  for (std::size_t i = 0; i < config.paths; ++i) {
    const chip::PathGeometry path =
        chip::random_path_geometry(floorplan_key, i, config.nominal_depth);
    CounterRng path_rng{rnd_key.at(i)};
    const double rnd = path_rng.normal(0.0, config.rnd_sigma);
    const double v = d2d + wid.at(0.0, path.location) + rnd;
    worst = std::max(worst, path.depth_stages * (1.0 + v));
  }
  return worst;
}

}  // namespace

std::vector<double> sample_worst_paths(const YieldConfig& config,
                                       ThreadPool* pool) {
  // The check Floorplan::random_paths makes for every chip's paths.
  ROCLK_CHECK(config.chips == 0 || config.nominal_depth > 0.0,
              "path depth must be positive");
  const StreamKey chips_key =
      StreamKey{config.seed}.split("analysis.yield").split("chip");
  return mc::keyed_map(config.chips, chips_key, pool,
                       [&](std::size_t, StreamKey chip_key) {
                         return sample_worst_path(config, chip_key);
                       });
}

YieldCurve yield_curve(std::span<const double> margins,
                       const YieldConfig& config) {
  return yield_curve(margins, config, &ThreadPool::shared());
}

YieldCurve yield_curve(std::span<const double> margins,
                       const YieldConfig& config, ThreadPool* pool) {
  ROCLK_CHECK(config.chips > 0, "need at least one chip");
  ROCLK_CHECK(config.paths > 0, "need at least one path");
  ROCLK_CHECK(!margins.empty(), "empty margin sweep");

  const std::vector<double> worst_paths = sample_worst_paths(config, pool);

  RunningStats worst_stats;
  RunningStats adaptive_period_stats;
  std::size_t adaptive_ok = 0;
  for (const double worst : worst_paths) {
    worst_stats.add(worst);
    // The adaptive clock serves this chip if the RO can stretch at least
    // to the slowest path (and the chip's period *is* that path + loop
    // ripple, here idealised away: static variation only).
    if (worst <= static_cast<double>(config.ro_max_length)) {
      ++adaptive_ok;
      adaptive_period_stats.add(std::max(worst, config.setpoint_c));
    }
  }

  YieldCurve curve;
  curve.mean_worst_path = worst_stats.mean();
  curve.mean_adaptive_period = adaptive_period_stats.mean();
  curve.p99_worst_path = percentile(worst_paths, 0.99);

  const double adaptive_yield =
      static_cast<double>(adaptive_ok) / static_cast<double>(config.chips);

  // One sort turns every margin's pass count into a binary search: chips
  // with worst <= c + m are exactly the prefix up to upper_bound.
  std::vector<double> sorted_paths{worst_paths};
  std::sort(sorted_paths.begin(), sorted_paths.end());
  for (double margin : margins) {
    YieldPoint point;
    point.margin_stages = margin;
    const auto fixed_ok = static_cast<std::size_t>(
        std::upper_bound(sorted_paths.begin(), sorted_paths.end(),
                         config.setpoint_c + margin) -
        sorted_paths.begin());
    point.fixed_yield =
        static_cast<double>(fixed_ok) / static_cast<double>(config.chips);
    point.adaptive_yield = adaptive_yield;  // margin-independent
    curve.points.push_back(point);
  }
  return curve;
}

MarginComparison compare_margins(double target_yield,
                                 const YieldConfig& config) {
  ROCLK_CHECK(target_yield > 0.0 && target_yield <= 1.0,
                "target yield must be in (0, 1]");
  ROCLK_CHECK(config.chips > 0, "need at least one chip");
  ROCLK_CHECK(config.paths > 0, "need at least one path");

  const std::vector<double> worst_paths =
      sample_worst_paths(config, &ThreadPool::shared());

  RunningStats adaptive_extra;
  for (const double worst : worst_paths) {
    adaptive_extra.add(std::max(0.0, worst - config.setpoint_c));
  }
  MarginComparison cmp;
  cmp.fixed_margin_needed = std::max(
      0.0, percentile(worst_paths, target_yield) - config.setpoint_c);
  cmp.adaptive_mean_extra_period = adaptive_extra.mean();
  cmp.margin_saved =
      cmp.fixed_margin_needed - cmp.adaptive_mean_extra_period;
  return cmp;
}

}  // namespace roclk::analysis
