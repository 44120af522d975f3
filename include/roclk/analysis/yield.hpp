// Parametric yield under process variation: the economics behind the paper.
//
// The introduction's argument: PVTA uncertainty forces safety margins, and
// "the more margin added, the more unlikely to fail the chip is" — margin
// buys yield at the cost of performance, and more critical paths demand
// more margin for the same yield (Bowman et al., the paper's refs [1][3]).
// This module makes that quantitative with a Monte-Carlo over fabricated
// chips (D2D offset + WID map + RND device noise on every path):
//
//  * fixed clock: a chip yields at margin m if every path fits into the
//    period c + m on that die;
//  * adaptive clock: a chip yields if the RO has enough length range to
//    stretch the period over the slowest path (margins become per-chip
//    *measured* periods instead of a worst-case tax).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "roclk/chip/floorplan.hpp"
#include "roclk/common/status.hpp"
#include "roclk/common/thread_pool.hpp"

namespace roclk::analysis {

struct YieldConfig {
  std::size_t chips{500};         // Monte-Carlo sample size
  std::size_t paths{64};          // critical-path candidates per chip
  double nominal_depth{64.0};     // stages per path at nominal
  double d2d_sigma{0.05};
  double wid_sigma{0.04};
  double rnd_sigma{0.02};
  double setpoint_c{64.0};
  std::int64_t ro_max_length{128};  // adaptive clock's stretch range
  std::uint64_t seed{1234};
};

struct YieldPoint {
  double margin_stages{0.0};
  double fixed_yield{0.0};     // fraction of chips meeting timing
  double adaptive_yield{0.0};  // fraction the adaptive clock can serve
};

struct YieldCurve {
  std::vector<YieldPoint> points;
  /// Mean over chips of the slowest-path delay (stages).
  double mean_worst_path{0.0};
  /// Mean adaptive period (per-chip period that exactly fits the die).
  double mean_adaptive_period{0.0};
  /// p99 over chips of the slowest-path delay: the fixed margin needed for
  /// ~99% yield.
  double p99_worst_path{0.0};
};

/// Samples the per-chip slowest-path delays for `config` (index order:
/// chip i at slot i).  Each chip draws from the indexed substream
/// StreamKey{seed}.split("analysis.yield").split("chip").at(i), so the
/// result is a pure function of the config — bitwise identical whether
/// `pool` is null (sequential single-stream order), the shared pool, or
/// any explicitly sized pool.  yield_curve and compare_margins call it on
/// every query (nothing is memoised); call it directly to shard a study or
/// to gate scheduling invariance.
[[nodiscard]] std::vector<double> sample_worst_paths(
    const YieldConfig& config, ThreadPool* pool = nullptr);

/// Sweeps the fixed clock's safety margin over `margins` and reports both
/// yields.  Deterministic in config.seed.
[[nodiscard]] YieldCurve yield_curve(std::span<const double> margins,
                                     const YieldConfig& config = {});

/// Same, running the chip sampling on an explicit pool (nullptr =
/// strictly sequential).  The curve is bitwise identical for
/// every choice of pool — the sampling is scheduling-invariant (§13).
[[nodiscard]] YieldCurve yield_curve(std::span<const double> margins,
                                     const YieldConfig& config,
                                     ThreadPool* pool);

/// The margin (stages) the fixed clock needs for a target yield, found on
/// the worst-path distribution; and the performance the adaptive clock
/// gives up instead (its mean period minus c).
struct MarginComparison {
  double fixed_margin_needed{0.0};
  double adaptive_mean_extra_period{0.0};
  double margin_saved{0.0};  // fixed - adaptive (stages)
};
[[nodiscard]] MarginComparison compare_margins(double target_yield,
                                               const YieldConfig& config =
                                                   {});

}  // namespace roclk::analysis
