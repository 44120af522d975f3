#include "roclk/cdn/cdn.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "roclk/common/math.hpp"

namespace roclk::cdn {

QuantizedTimeCdn::QuantizedTimeCdn(double delay_stages, std::size_t history,
                                   DelayQuantization quantization,
                                   std::size_t ring_depth)
    : delay_stages_{delay_stages},
      history_{history},
      quantization_{quantization} {
  ROCLK_CHECK(delay_stages >= 0.0,
              "CDN delay cannot be negative, got t_clk=" << delay_stages
                                                         << " stages");
  ROCLK_CHECK(history >= 2, "history must be >= 2, got " << history);
  if (ring_depth == 0) ring_depth = std::bit_ceil(history_);
  // Mask indexing in look_back() requires a power-of-two depth that covers
  // the retained history; reject anything else at construction.
  ROCLK_CHECK(is_power_of_two(ring_depth),
              "CDN ring depth must be a power of two, got " << ring_depth);
  ROCLK_CHECK(ring_depth >= history_,
              "CDN ring depth " << ring_depth
                                << " cannot cover history " << history_);
  ring_.assign(ring_depth, 0.0);
  mask_ = ring_.size() - 1;
  reset(0.0);
}

void QuantizedTimeCdn::reset(double initial_period) {
  std::fill(ring_.begin(), ring_.end(), initial_period);
  next_ = 0;
  count_ = 0;
  last_m_ = 0;
  initial_period_ = initial_period;
}

}  // namespace roclk::cdn
