// A counting global operator new for allocation budgets.
//
// Linking tests/support/counting_new.cpp into a test binary replaces every
// global operator new and delete of that program with malloc/free-based
// ones that count the allocations made on any thread.  A budget test reads
// the count around the call it holds to a ceiling:
//
//   EXPECT_EQ(roclk::testing::allocations_of([&] {
//     ensemble.run_homogeneous(...);
//   }), 0u);
//
// Only the budget binary links it: every other test binary keeps the
// standard library's operator new (and the sanitizers' interceptors).
#pragma once

#include <cstdint>

namespace roclk::testing {

/// Global operator new calls (every form: sized, array, aligned, nothrow)
/// since the program started.
[[nodiscard]] std::uint64_t allocations();

/// Allocations made, on any thread, while fn() runs.
template <class Fn>
[[nodiscard]] std::uint64_t allocations_of(const Fn& fn) {
  const std::uint64_t before = allocations();
  fn();
  return allocations() - before;
}

}  // namespace roclk::testing
