#include "roclk/common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "roclk/common/status.hpp"

namespace roclk {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double mean(std::span<const double> xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

double min_of(std::span<const double> xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.min();
}

double max_of(std::span<const double> xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.max();
}

double percentile(std::span<const double> xs, double p) {
  ROCLK_CHECK(!xs.empty(), "percentile of empty span");
  ROCLK_CHECK(p >= 0.0 && p <= 1.0, "percentile p must be in [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace roclk
