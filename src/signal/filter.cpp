#include "roclk/signal/filter.hpp"

#include <algorithm>

namespace roclk::signal {

LinearFilter::LinearFilter(std::vector<double> b, std::vector<double> a)
    : b_{std::move(b)}, a_{std::move(a)} {
  ROCLK_CHECK(!a_.empty() && a_[0] != 0.0,
                "denominator leading coefficient must be non-zero");
  if (b_.empty()) b_ = {0.0};
  const double a0 = a_[0];
  for (double& c : b_) c /= a0;
  for (double& c : a_) c /= a0;
  state_.assign(std::max(a_.size(), b_.size()), 0.0);
}

LinearFilter::LinearFilter(const TransferFunction& tf)
    : LinearFilter(tf.numerator().coefficients(),
                   tf.denominator().coefficients()) {}

double LinearFilter::step(double x) {
  // Direct form II transposed:
  //   y = b0 x + s0
  //   s_i = b_{i+1} x - a_{i+1} y + s_{i+1}
  const double y = b_[0] * x + state_[0];
  const std::size_t n = state_.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double bi = (i + 1) < b_.size() ? b_[i + 1] : 0.0;
    const double ai = (i + 1) < a_.size() ? a_[i + 1] : 0.0;
    state_[i] = bi * x - ai * y + state_[i + 1];
  }
  if (n >= 1) {
    const double bi = n < b_.size() ? b_[n] : 0.0;
    const double ai = n < a_.size() ? a_[n] : 0.0;
    state_[n - 1] = bi * x - ai * y;
  }
  return y;
}

}  // namespace roclk::signal
