// Runtime evaluation of linear difference equations.
//
// LinearFilter executes an arbitrary H(z) = N(z)/D(z) sample-by-sample in
// direct form II transposed.  It is the floating-point *reference*
// implementation against which the integer hardware model of the paper's
// IIR control block is validated.
#pragma once

#include <vector>

#include "roclk/common/status.hpp"
#include "roclk/signal/transfer_function.hpp"

namespace roclk::signal {

class LinearFilter {
 public:
  /// b: numerator coefficients {b0..bM} of z^-k, a: denominator {a0..aN};
  /// a0 must be non-zero (it is divided out).
  LinearFilter(std::vector<double> b, std::vector<double> a);
  explicit LinearFilter(const TransferFunction& tf);

  /// Processes one input sample, returns one output sample.
  double step(double x);

 private:
  std::vector<double> b_;  // normalized so a_[0] == 1
  std::vector<double> a_;
  std::vector<double> state_;  // DF2T delay registers
};

}  // namespace roclk::signal
