// The benches' exit status follows their shape checks: any [SHAPE-DIFF]
// makes main() return nonzero, so a bench run as a ctest or CI step fails
// when the paper's qualitative claim stops holding.
#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>

#include "bench_util.hpp"

namespace roclk::bench {
namespace {

/// A bench in miniature, for a death-test child: its shape checks, then
/// what every bench's main() ends with, `return shape_exit_code();`.
[[noreturn]] void run_bench_with(std::initializer_list<bool> outcomes) {
  shape_failures() = 0;
  for (const bool ok : outcomes) shape_check(ok, "claim");
  std::exit(shape_exit_code());
}

TEST(BenchShapeCheck, AllChecksHoldingExitsZero) {
  EXPECT_EXIT(run_bench_with({true, true}), ::testing::ExitedWithCode(0),
              "");
}

TEST(BenchShapeCheck, ShapeDiffExitsNonzero) {
  EXPECT_EXIT(run_bench_with({false}), ::testing::ExitedWithCode(1), "");
}

TEST(BenchShapeCheck, LaterPassingChecksDoNotClearAShapeDiff) {
  EXPECT_EXIT(run_bench_with({true, false, true}),
              ::testing::ExitedWithCode(1), "");
}

}  // namespace
}  // namespace roclk::bench
