#include "roclk/common/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "roclk/common/math.hpp"

namespace roclk::simd {
namespace {

/// Scoped backend override so a failing test cannot leak a forced backend
/// into the rest of the suite.
struct BackendOverrideGuard {
  explicit BackendOverrideGuard(Backend backend) {
    set_backend_override(backend);
  }
  ~BackendOverrideGuard() { set_backend_override(std::nullopt); }
  BackendOverrideGuard(const BackendOverrideGuard&) = delete;
  BackendOverrideGuard& operator=(const BackendOverrideGuard&) = delete;
};

bool line_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes == 0;
}

// ------------------------------------------------ cache-aligned storage

/// Two odd-sized arrays of each element type the ensemble keeps, plus an
/// empty one, in one block.
struct OddLayout {
  double* a{nullptr};
  std::uint8_t* b{nullptr};
  std::int64_t* c{nullptr};
  std::uint64_t* d{nullptr};
  double* e{nullptr};
  double* empty{nullptr};
  double* f{nullptr};

  template <class Bind>
  void bind_arrays(Bind&& bind) {
    bind(a, 1);
    bind(b, 3);
    bind(c, 37);
    bind(d, 9);
    bind(e, 1000);
    bind(empty, 0);
    bind(f, 7);
  }
};

TEST(LaneBlock, ArraysAreLineAlignedForOddSizes) {
  OddLayout layout;
  const LaneBlock block{[&](auto&& bind) { layout.bind_arrays(bind); }};
  // Each array starts on a line, right after the whole lines of the one
  // before it, and the block arrives zero-filled.
  const std::byte* next = reinterpret_cast<const std::byte*>(layout.a);
  layout.bind_arrays([&]<class T>(T*& array, std::size_t n) {
    const auto* start = reinterpret_cast<const std::byte*>(array);
    EXPECT_TRUE(line_aligned(start)) << n << " entries";
    EXPECT_EQ(start, next) << n << " entries";
    next = start + lane_array_bytes<T>(n);
    EXPECT_EQ(lane_array_bytes<T>(n) % kCacheLineBytes, 0u);
    EXPECT_GE(lane_array_bytes<T>(n), n * sizeof(T));
    EXPECT_TRUE(std::all_of(array, array + n, [](T x) { return x == T{}; }));
  });
  EXPECT_EQ(lane_array_bytes<std::uint8_t>(3), kCacheLineBytes);
  EXPECT_EQ(lane_array_bytes<double>(9), 2 * kCacheLineBytes);
  EXPECT_EQ(lane_array_bytes<double>(0), 0u);
}

TEST(LaneBlock, MovedBlockKeepsItsArrays) {
  OddLayout layout;
  LaneBlock block{[&](auto&& bind) { layout.bind_arrays(bind); }};
  std::fill_n(layout.e, 1000, 2.5);
  LaneBlock moved{std::move(block)};
  LaneBlock assigned;
  assigned = std::move(moved);
  EXPECT_TRUE(std::all_of(layout.e, layout.e + 1000,
                          [](double x) { return x == 2.5; }));
  EXPECT_TRUE(line_aligned(layout.e));
}

// -------------------------------------------------- backend dispatch

TEST(SimdBackend, ParseBackendRecognisesNamesOnly) {
  EXPECT_EQ(parse_backend("scalar"), Backend::kScalar);
  EXPECT_EQ(parse_backend("avx2"), Backend::kAvx2);
  EXPECT_EQ(parse_backend("avx512"), Backend::kAvx512);
  EXPECT_EQ(parse_backend("neon"), Backend::kNeon);
  // Names match in any case.
  EXPECT_EQ(parse_backend("SCALAR"), Backend::kScalar);
  EXPECT_EQ(parse_backend("AVX2"), Backend::kAvx2);
  EXPECT_EQ(parse_backend("Avx512"), Backend::kAvx512);
  EXPECT_EQ(parse_backend("nEoN"), Backend::kNeon);
  EXPECT_EQ(parse_backend("native"), std::nullopt);
  EXPECT_EQ(parse_backend("NATIVE"), std::nullopt);
  EXPECT_EQ(parse_backend("auto"), std::nullopt);
  EXPECT_EQ(parse_backend(""), std::nullopt);
  EXPECT_EQ(parse_backend("sse9"), std::nullopt);
  EXPECT_EQ(parse_backend("avx"), std::nullopt);
  EXPECT_EQ(parse_backend("avx5120"), std::nullopt);
}

TEST(SimdBackend, ScalarIsAlwaysUsableAndNamed) {
  EXPECT_TRUE(backend_compiled(Backend::kScalar));
  EXPECT_TRUE(backend_cpu_supported(Backend::kScalar));
  EXPECT_STREQ(to_string(Backend::kScalar), "scalar");
  EXPECT_STREQ(to_string(Backend::kAvx2), "avx2");
  EXPECT_STREQ(to_string(Backend::kAvx512), "avx512");
  EXPECT_STREQ(to_string(Backend::kNeon), "neon");
}

TEST(SimdBackend, NativeBackendIsCompiledAndSupported) {
  const Backend native = native_backend();
  EXPECT_TRUE(backend_compiled(native));
  EXPECT_TRUE(backend_cpu_supported(native));
}

TEST(SimdBackend, NativeIsTheWidestUsableBackend) {
  Backend widest = Backend::kScalar;
  for (const Backend candidate :
       {Backend::kAvx512, Backend::kAvx2, Backend::kNeon}) {
    if (backend_compiled(candidate) && backend_cpu_supported(candidate)) {
      widest = candidate;
      break;
    }
  }
  EXPECT_EQ(native_backend(), widest) << to_string(native_backend());
}

TEST(SimdBackend, OverrideOutranksEnvAndNative) {
  {
    BackendOverrideGuard forced{Backend::kScalar};
    EXPECT_EQ(active_backend(), Backend::kScalar);
  }
  {
    BackendOverrideGuard forced{native_backend()};
    EXPECT_EQ(active_backend(), native_backend());
  }
  // With no override, the dispatcher still resolves to something usable
  // (env request or native detection, both degrade to scalar if unusable).
  const Backend resolved = active_backend();
  EXPECT_TRUE(backend_compiled(resolved));
  EXPECT_TRUE(backend_cpu_supported(resolved));
}

TEST(SimdBackend, UnusableOverrideDegradesToScalar) {
  for (const Backend candidate :
       {Backend::kAvx2, Backend::kAvx512, Backend::kNeon}) {
    if (backend_compiled(candidate) && backend_cpu_supported(candidate)) {
      continue;  // genuinely usable here; nothing to degrade
    }
    BackendOverrideGuard forced{candidate};
    EXPECT_EQ(active_backend(), Backend::kScalar) << to_string(candidate);
  }
}

// ------------------------------------------------ portable scalar pack
//
// The ensemble equivalence suite exercises every backend end to end; here
// we pin the portable pack's tricky single ops against the scalar
// reference functions they must reproduce bit for bit.

using V = ScalarTraits<4>;

TEST(ScalarPack, RoundTiesAwayMatchesMathHppBitForBit) {
  const std::vector<double> cases{0.0,   -0.0,  0.5,    -0.5,  1.5,
                                  -1.5,  2.5,   -2.5,   0.49,  -0.49,
                                  3.0,   -3.0,  1e15,   -1e15, 0x1p50,
                                  -0x1p50, 123456.5, -123456.5};
  for (std::size_t i = 0; i + V::kWidth <= cases.size(); i += V::kWidth) {
    double out[V::kWidth];
    V::store(out, V::round_ties_away(V::load(&cases[i])));
    for (std::size_t j = 0; j < V::kWidth; ++j) {
      const double expect = roclk::round_ties_away(cases[i + j]);
      // Bitwise comparison so -0.0 vs +0.0 mismatches are caught.
      EXPECT_EQ(std::memcmp(&out[j], &expect, sizeof(double)), 0)
          << "x=" << cases[i + j];
    }
  }
}

TEST(ScalarPack, CmpSelectComposesStdMinMaxExactly) {
  // std::min(a,b) = b<a ? b : a;  std::max(a,b) = a<b ? b : a.  The pack
  // must preserve that selection order so equal values (incl. -0.0 vs
  // +0.0) pick the same operand as the scalar reference.
  const double a[4] = {1.0, -0.0, 3.5, -2.0};
  const double b[4] = {2.0, 0.0, 3.5, -7.0};
  const V::D va = V::load(a);
  const V::D vb = V::load(b);
  double mn[4];
  double mx[4];
  V::store(mn, V::select(V::cmp_lt(vb, va), vb, va));
  V::store(mx, V::select(V::cmp_lt(va, vb), vb, va));
  for (int i = 0; i < 4; ++i) {
    const double smin = std::min(a[i], b[i]);
    const double smax = std::max(a[i], b[i]);
    EXPECT_EQ(std::memcmp(&mn[i], &smin, sizeof(double)), 0) << i;
    EXPECT_EQ(std::memcmp(&mx[i], &smax, sizeof(double)), 0) << i;
  }
}

TEST(ScalarPack, IntConversionsExactInsideWindow) {
  const std::int64_t values[4] = {0, -1, (std::int64_t{1} << 50),
                                  -((std::int64_t{1} << 50) - 3)};
  double d[4];
  V::store(d, V::to_double_exact(V::iload(values)));
  std::int64_t back[4];
  V::istore(back, V::to_int_exact(V::load(d)));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(d[i], static_cast<double>(values[i])) << i;
    EXPECT_EQ(back[i], values[i]) << i;
  }
}

TEST(ScalarPack, SignedShiftAndMasksMatchScalar) {
  // shift_signed by a per-lane count: ishl left, isra arithmetic right.
  const std::int64_t values[4] = {-9, 9, -1, (std::int64_t{1} << 40) + 5};
  std::int64_t out[4];
  V::istore(out, V::isra(V::iload(values), V::ibroadcast(3)));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], values[i] >> 3) << i;
  V::istore(out, V::ishl(V::iload(values), V::ibroadcast(2)));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], values[i] << 2) << i;
  const std::int64_t counts[4] = {0, 1, 5, 40};
  V::istore(out, V::isra(V::iload(values), V::iload(counts)));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], values[i] >> counts[i]) << i;
  }
  V::istore(out, V::ishl(V::iload(values), V::iload(counts)));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], values[i] << counts[i]) << i;
  }

  const std::int64_t limit[4] = {10, 10, 10, 10};
  const unsigned below =
      V::imask_bits(V::icmp_lt(V::iload(values), V::iload(limit)));
  EXPECT_EQ(below, 0b0111u);  // lanes 0..2 are < 10, lane 3 is not
}

TEST(ScalarPack, IntSubAndMatchScalar) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t a[4] = {5, -7, 0, kMin};
  const std::int64_t b[4] = {9, -7, 1, 1};
  std::int64_t out[4];
  V::istore(out, V::isub(V::iload(a), V::iload(b)));
  EXPECT_EQ(out[0], -4);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], -1);
  // Two's-complement wraparound, like the vector subtracts.
  EXPECT_EQ(out[3], std::numeric_limits<std::int64_t>::max());

  const std::int64_t mask[4] = {7, 7, 7, 7};
  V::istore(out, V::iand(V::iload(a), V::iload(mask)));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], a[i] & 7) << i;
}

TEST(ScalarPack, GatherReadsEachLanesRingSlot) {
  // The ensemble kernel's look-back: lane j of a group reads ring slot
  // (pos - m_j) & slot_mask of its own column, at
  // ((slot << row_shift) + j) from the group's first column.
  constexpr std::int64_t kSlots = 8;
  constexpr int kRowShift = 2;  // a 4-lane row
  std::vector<double> ring(kSlots << kRowShift);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    ring[i] = 100.0 + static_cast<double>(i);
  }
  // m doubles as the lane offsets {0, 1, 2, 3}.
  const std::int64_t lane[4] = {0, 1, 2, 3};
  const auto look_back = [&](std::int64_t pos, const std::int64_t* m) {
    const V::I slot = V::iand(V::isub(V::ibroadcast(pos), V::iload(m)),
                              V::ibroadcast(kSlots - 1));
    const V::I index = V::iadd(V::ishl(slot, V::ibroadcast(kRowShift)),
                               V::iload(lane));
    std::vector<double> out(4);
    V::store(out.data(), V::gather(ring.data(), index));
    return out;
  };

  // In window: pos 5 looks back 0..3 cycles, slots 5, 4, 3, 2.
  EXPECT_EQ(look_back(5, lane),
            (std::vector<double>{100.0 + 20, 100.0 + 17, 100.0 + 14,
                                 100.0 + 11}));
  // Wrap at slot_mask: pos 9 is slot 1, so 0..3 back are slots 1, 0, 7, 6.
  EXPECT_EQ(look_back(9, lane),
            (std::vector<double>{100.0 + 4, 100.0 + 1, 100.0 + 30,
                                 100.0 + 27}));
  // Before the run started (m > pos): pos - m is negative, the mask still
  // lands on slots 7, 4, 3 and 2, and the kernel's select discards the
  // values.
  const std::int64_t early[4] = {2, 5, 6, 7};
  EXPECT_EQ(look_back(1, early),
            (std::vector<double>{100.0 + 28, 100.0 + 17, 100.0 + 14,
                                 100.0 + 11}));
}

}  // namespace
}  // namespace roclk::simd
