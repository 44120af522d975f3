// Streaming and batch statistics for simulation traces.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace roclk {

/// Single-pass running statistics (Welford's algorithm): mean, variance,
/// min, max of a stream of doubles without storing it.
class RunningStats {
 public:
  void add(double x);
  void reset() { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance (divide by n).
  [[nodiscard]] double variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
  /// Sample variance (divide by n-1); 0 for fewer than two samples.
  [[nodiscard]] double sample_variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double range() const { return n_ ? max_ - min_ : 0.0; }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// Batch helpers over a span of samples.
[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double min_of(std::span<const double> xs);
[[nodiscard]] double max_of(std::span<const double> xs);
/// p in [0, 1]; linear interpolation between order statistics.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

}  // namespace roclk
