// SIMD dispatch shim + cache-aligned lane storage for roclk's lane kernels.
//
// The ensemble engine (core::EnsembleSimulator) runs W independent loop
// instances in SoA lockstep; its per-cycle arithmetic is pure lane-wise
// IEEE-754, so it vectorizes across lanes without changing a single bit of
// any lane's result.  This header is the ONE place in the tree allowed to
// include vendor intrinsics (enforced by roclk_lint's simd-include rule):
//
//  * Backend — which lane-kernel implementation runs: kScalar (portable
//    fixed-width pack, always available), kAvx2 (x86, 4 doubles/vector),
//    kAvx512 (x86 AVX-512F + DQ, 8 doubles/vector), kNeon (aarch64,
//    2 doubles/vector).  active_backend() resolves, in order: the
//    programmatic override (set_backend_override), the ROCLK_SIMD
//    environment variable (scalar | avx2 | avx512 | neon | native, any
//    case), and runtime CPU detection of the widest compiled-in backend
//    (avx512, then avx2, then neon, else scalar).  Requesting a backend
//    that is not compiled in or not supported by this CPU falls back to
//    kScalar with a one-time stderr warning — never a crash.
//
//  * Traits (ScalarTraits<N> / Avx2Traits / Avx512Traits / NeonTraits) — a
//    uniform vector-of-doubles + vector-of-int64 operation set the generic
//    kernel template is instantiated over.  Every operation is defined to
//    match the scalar reference EXACTLY, bit for bit, on the kernel's
//    domain (finite inputs; integral magnitudes below 2^51 for the
//    int<->double conversions — see to_int_exact):
//      - add/sub/mul/div are lane-wise IEEE-754 ops, identical to scalar;
//      - min/max/clamp are NOT provided as fused ops: kernels compose them
//        from cmp_* + select so -0.0/NaN selection matches std::min /
//        std::max / std::clamp exactly;
//      - round_ties_away composes trunc/cmp/copysign with the same
//        operation sequence as roclk::round_ties_away (common/math.hpp);
//      - to_int_exact/to_double_exact: the scalar pack casts; AVX2's
//        magic-constant round trip is exact inside the window only;
//        AVX-512's and NEON's native converts match static_cast wherever
//        the cast is defined.  The kernel guards the window for every
//        backend alike;
//      - gather(base, idx) reads base[idx[i]] into lane i: the only load
//        whose address varies per lane (the CDN ring look-back).
//    A mask type M is whatever the backend's compares return (a lane
//    vector on AVX2/NEON/the scalar pack, a __mmask8 on AVX-512); the
//    kernels only hand it back to select/iselect/dselect/*mask_bits.
//
//  * LaneBlock — lane arrays carved from one cache-line-aligned
//    allocation, each aligned to (and padded to a multiple of) the cache
//    line, so vector loads never split lines and concurrently-run chunks
//    never false-share a line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string_view>

#include "roclk/common/math.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace roclk::simd {

// ------------------------------------------------ cache-aligned storage

/// Cache-line size the lane arrays are aligned and padded to.  64 bytes
/// covers every x86-64 and mainstream aarch64 part; on 128-byte-line CPUs
/// the padding is merely half as effective, never wrong.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Bytes an array of `n` T takes in a LaneBlock: whole cache lines.
template <class T>
[[nodiscard]] constexpr std::size_t lane_array_bytes(std::size_t n) {
  return (n * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes *
         kCacheLineBytes;
}

/// One zero-filled, cache-line-aligned allocation carved into lane arrays.
/// Each array starts on its own line and is padded to whole lines, so
/// vector loads at lane-group offsets never straddle a line, and arrays
/// touched by different worker threads never share one.
///
/// A layout is a callable that hands each array pointer, with its entry
/// count, to the binder it is called with: layout(bind) calls
/// bind(array, n) once per array, in block order.  The constructor runs it
/// twice, to size the block and to point every array at its lines.
/// Moving a block moves ownership only: the arrays stay where they are.
///
/// The block is one plain allocation with up to a line of slack, aligned
/// by hand: glibc's aligned allocation frees a fragment before and after
/// every block, and in a long-running service that builds an ensemble per
/// miss (perfbench serve_cold) those fragments raised the peak RSS by a
/// quarter.
class LaneBlock {
 public:
  LaneBlock() = default;

  template <class Layout>
  explicit LaneBlock(const Layout& layout) {
    std::size_t bytes = 0;
    layout([&bytes]<class T>(T*& /*array*/, std::size_t n) {
      bytes += lane_array_bytes<T>(n);
    });
    std::size_t space = bytes + kCacheLineBytes - 1;
    data_ = std::make_unique_for_overwrite<std::byte[]>(space);
    void* start = data_.get();
    std::byte* next = static_cast<std::byte*>(
        std::align(kCacheLineBytes, bytes, start, space));
    std::memset(next, 0, bytes);
    layout([&next]<class T>(T*& array, std::size_t n) {
      array = reinterpret_cast<T*>(next);
      next += lane_array_bytes<T>(n);
    });
  }

 private:
  std::unique_ptr<std::byte[]> data_;
};

// -------------------------------------------------- backend dispatch

enum class Backend { kScalar, kAvx2, kAvx512, kNeon };

[[nodiscard]] constexpr const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
    case Backend::kNeon:
      return "neon";
  }
  return "?";
}

/// Parses a backend name ("scalar" / "avx2" / "avx512" / "neon",
/// case-insensitive).
/// "native" and "auto" mean "use the detected best" and parse to nullopt,
/// as does any unknown string (the caller distinguishes via the bool).
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view name);

/// True when the named backend was compiled into this binary.
[[nodiscard]] bool backend_compiled(Backend backend);

/// True when this CPU can execute the named backend (kScalar: always).
[[nodiscard]] bool backend_cpu_supported(Backend backend);

/// Widest backend that is both compiled in and supported by this CPU: the
/// first usable one of avx512, avx2 and neon, else scalar.
[[nodiscard]] Backend native_backend();

/// Backend the lane kernels will dispatch to: programmatic override if
/// set, else the ROCLK_SIMD environment variable (read once per process),
/// else native_backend().  An unusable request degrades to kScalar with a
/// one-time stderr warning.
[[nodiscard]] Backend active_backend();

/// Programmatic override with highest precedence (tests, benches).
/// nullopt restores env/native resolution.
void set_backend_override(std::optional<Backend> backend);

// ------------------------------------------------ portable scalar pack
//
// N independent lanes computed with the exact scalar operations of the
// reference kernel — the portable fallback backend (N = 4) and the masked
// scalar tail (N = 1) of the vector backends.  Compilers are free to
// auto-vectorize these loops; every op is lane-wise IEEE-754, so the
// result is bit-identical either way.

template <std::size_t N>
struct ScalarTraits {
  static constexpr std::size_t kWidth = N;

  struct D {
    double v[N];
  };
  struct I {
    std::int64_t v[N];
  };
  using M = I;  // lane mask: 0 = false, all-ones = true

  static D load(const double* p) {
    D r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = p[i];
    return r;
  }
  static void store(double* p, D a) {
    for (std::size_t i = 0; i < N; ++i) p[i] = a.v[i];
  }
  static D broadcast(double x) {
    D r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = x;
    return r;
  }
  static D add(D a, D b) {
    D r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  static D sub(D a, D b) {
    D r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  static D mul(D a, D b) {
    D r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  static D div(D a, D b) {
    D r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] / b.v[i];
    return r;
  }
  static D floor(D a) {
    D r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = std::floor(a.v[i]);
    return r;
  }
  static D round_ties_away(D a) {
    D r;
    for (std::size_t i = 0; i < N; ++i) {
      r.v[i] = ::roclk::round_ties_away(a.v[i]);
    }
    return r;
  }
  static M cmp_lt(D a, D b) {
    M r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] < b.v[i] ? -1 : 0;
    return r;
  }
  static unsigned mask_bits(M m) {
    unsigned bits = 0;
    for (std::size_t i = 0; i < N; ++i) {
      bits |= (m.v[i] != 0 ? 1u : 0u) << i;
    }
    return bits;
  }
  static D select(M m, D a, D b) {
    D r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = m.v[i] != 0 ? a.v[i] : b.v[i];
    return r;
  }

  static I iload(const std::int64_t* p) {
    I r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = p[i];
    return r;
  }
  static void istore(std::int64_t* p, I a) {
    for (std::size_t i = 0; i < N; ++i) p[i] = a.v[i];
  }
  static I ibroadcast(std::int64_t x) {
    I r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = x;
    return r;
  }
  static I iadd(I a, I b) {
    I r;
    for (std::size_t i = 0; i < N; ++i) {
      // Two's-complement wraparound, like the vector adds.
      r.v[i] = static_cast<std::int64_t>(static_cast<std::uint64_t>(a.v[i]) +
                                         static_cast<std::uint64_t>(b.v[i]));
    }
    return r;
  }
  static I isub(I a, I b) {
    I r;
    for (std::size_t i = 0; i < N; ++i) {
      r.v[i] = static_cast<std::int64_t>(static_cast<std::uint64_t>(a.v[i]) -
                                         static_cast<std::uint64_t>(b.v[i]));
    }
    return r;
  }
  static I iand(I a, I b) {
    I r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] & b.v[i];
    return r;
  }
  static I ineg(I a) {
    I r;
    for (std::size_t i = 0; i < N; ++i) {
      r.v[i] = static_cast<std::int64_t>(-static_cast<std::uint64_t>(a.v[i]));
    }
    return r;
  }
  /// shift_signed (common/math.hpp) lane-wise, by a per-lane count in
  /// [0, 63]: ishl shifts left, isra arithmetic right.
  static I ishl(I a, I count) {
    I r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] << count.v[i];
    return r;
  }
  static I isra(I a, I count) {
    I r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] >> count.v[i];
    return r;
  }
  static M icmp_lt(I a, I b) {
    M r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] < b.v[i] ? -1 : 0;
    return r;
  }
  static M icmp_eq(I a, I b) {
    M r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = a.v[i] == b.v[i] ? -1 : 0;
    return r;
  }
  static I iselect(M m, I a, I b) {
    I r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = m.v[i] != 0 ? a.v[i] : b.v[i];
    return r;
  }
  static unsigned imask_bits(M m) { return mask_bits(m); }
  static D dselect(M m, D a, D b) {
    D r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = m.v[i] != 0 ? a.v[i] : b.v[i];
    return r;
  }
  /// static_cast<std::int64_t>(x): the scalar reference conversion.  The
  /// vector backends implement this exactly for integral |x| < 2^51 (the
  /// kernel's guarded domain); the scalar pack has no such restriction.
  static I to_int_exact(D a) {
    I r;
    for (std::size_t i = 0; i < N; ++i) {
      r.v[i] = static_cast<std::int64_t>(a.v[i]);
    }
    return r;
  }
  static D to_double_exact(I a) {
    D r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = static_cast<double>(a.v[i]);
    return r;
  }
  /// base[idx[i]] in lane i: one plain indexed load per lane.
  static D gather(const double* base, I idx) {
    D r;
    for (std::size_t i = 0; i < N; ++i) r.v[i] = base[idx.v[i]];
    return r;
  }
};

// ------------------------------------------------------- AVX2 backend

#if defined(__AVX2__)

/// 4 double lanes / 4 int64 lanes per vector.  No FMA is ever emitted for
/// the lane arithmetic: every op maps to the plain IEEE-754 instruction
/// the scalar kernel uses, so results are bit-identical per lane.
struct Avx2Traits {
  static constexpr std::size_t kWidth = 4;

  using D = __m256d;
  using I = __m256i;
  using M = __m256d;  // doubles compare to a double mask; ints to an I mask

  static D load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, D a) { _mm256_storeu_pd(p, a); }
  static D broadcast(double x) { return _mm256_set1_pd(x); }
  static D add(D a, D b) { return _mm256_add_pd(a, b); }
  static D sub(D a, D b) { return _mm256_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm256_mul_pd(a, b); }
  static D div(D a, D b) { return _mm256_div_pd(a, b); }
  static D floor(D a) { return _mm256_floor_pd(a); }
  static D trunc(D a) {
    return _mm256_round_pd(a, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  static D copysign(D mag, D sgn) {
    const D sign_bit = _mm256_set1_pd(-0.0);
    return _mm256_or_pd(_mm256_andnot_pd(sign_bit, mag),
                        _mm256_and_pd(sign_bit, sgn));
  }
  /// Same operation sequence as roclk::round_ties_away, vector-wide.
  static D round_ties_away(D x) {
    const D t = trunc(x);
    const D diff = sub(x, t);
    const D one = broadcast(1.0);
    const D up =
        _mm256_and_pd(_mm256_cmp_pd(diff, broadcast(0.5), _CMP_GE_OQ), one);
    const D down =
        _mm256_and_pd(_mm256_cmp_pd(diff, broadcast(-0.5), _CMP_LE_OQ), one);
    return copysign(sub(add(t, up), down), x);
  }
  static M cmp_lt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static unsigned mask_bits(M m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
  static D select(M m, D a, D b) { return _mm256_blendv_pd(b, a, m); }

  static I iload(const std::int64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void istore(std::int64_t* p, I a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static I ibroadcast(std::int64_t x) { return _mm256_set1_epi64x(x); }
  static I iadd(I a, I b) { return _mm256_add_epi64(a, b); }
  static I isub(I a, I b) { return _mm256_sub_epi64(a, b); }
  static I iand(I a, I b) { return _mm256_and_si256(a, b); }
  static I ineg(I a) { return _mm256_sub_epi64(_mm256_setzero_si256(), a); }
  static I ishl(I a, I count) { return _mm256_sllv_epi64(a, count); }
  /// AVX2 has no 64-bit arithmetic right shift; it is rebuilt from the
  /// logical shift plus a sign fill shifted left by 64 - count, which
  /// vpsllvq turns into 0 for a count of 0.
  static I isra(I a, I count) {
    const I sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), a);
    const I fill = _mm256_sub_epi64(_mm256_set1_epi64x(64), count);
    return _mm256_or_si256(_mm256_srlv_epi64(a, count),
                           _mm256_sllv_epi64(sign, fill));
  }
  static I icmp_lt(I a, I b) { return _mm256_cmpgt_epi64(b, a); }
  static I icmp_eq(I a, I b) { return _mm256_cmpeq_epi64(a, b); }
  static I iselect(I m, I a, I b) { return _mm256_blendv_epi8(b, a, m); }
  static unsigned imask_bits(I m) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(m)));
  }
  static D dselect(I m, D a, D b) {
    return _mm256_blendv_pd(b, a, _mm256_castsi256_pd(m));
  }
  /// Exact double -> int64 for integral |x| < 2^51 via the 2^52 + 2^51
  /// magic constant: x + magic lands in [2^52, 2^53) where doubles count
  /// integers, so the payload bits ARE the biased integer.
  static I to_int_exact(D x) {
    const D magic = broadcast(0x1.8p52);
    return _mm256_sub_epi64(_mm256_castpd_si256(add(x, magic)),
                            _mm256_castpd_si256(magic));
  }
  static D to_double_exact(I x) {
    const D magic = broadcast(0x1.8p52);
    const I biased = _mm256_add_epi64(x, _mm256_castpd_si256(magic));
    return sub(_mm256_castsi256_pd(biased), magic);
  }
  static D gather(const double* base, I idx) {
    return _mm256_i64gather_pd(base, idx, sizeof(double));
  }
};

#endif  // __AVX2__

// ---------------------------------------------------- AVX-512 backend

#if defined(__AVX512F__) && defined(__AVX512DQ__)

/// 8 double lanes / 8 int64 lanes per vector; every compare returns a
/// __mmask8.  AVX-512F/DQ has natively what AVX2 emulates: the 64-bit
/// arithmetic shift, int64<->double converts (which match static_cast
/// wherever the cast is defined), rounding by immediate mode and masked
/// blends.  As on AVX2, no FMA is emitted.  GCC 12's unmasked shift,
/// gather and roundscale pass an undefined vector through and trip
/// -W(maybe-)uninitialized; their zero-masked forms with every lane
/// selected are the same instructions and results.
struct Avx512Traits {
  static constexpr std::size_t kWidth = 8;

  using D = __m512d;
  using I = __m512i;
  using M = __mmask8;

  static constexpr M kAllLanes = 0xFF;

  static D load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, D a) { _mm512_storeu_pd(p, a); }
  static D broadcast(double x) { return _mm512_set1_pd(x); }
  static D add(D a, D b) { return _mm512_add_pd(a, b); }
  static D sub(D a, D b) { return _mm512_sub_pd(a, b); }
  static D mul(D a, D b) { return _mm512_mul_pd(a, b); }
  static D div(D a, D b) { return _mm512_div_pd(a, b); }
  static D floor(D a) {
    return _mm512_maskz_roundscale_pd(kAllLanes, a,
                                      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static D trunc(D a) {
    return _mm512_maskz_roundscale_pd(kAllLanes, a,
                                      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  static D copysign(D mag, D sgn) {
    const D sign_bit = _mm512_set1_pd(-0.0);
    return _mm512_or_pd(_mm512_andnot_pd(sign_bit, mag),
                        _mm512_and_pd(sign_bit, sgn));
  }
  /// Avx2Traits::round_ties_away op for op: the compares pick a
  /// zero-masked 1.0 where AVX2 ands its compare mask with 1.0.
  static D round_ties_away(D x) {
    const D t = trunc(x);
    const D diff = sub(x, t);
    const D one = broadcast(1.0);
    const D up = _mm512_maskz_mov_pd(
        _mm512_cmp_pd_mask(diff, broadcast(0.5), _CMP_GE_OQ), one);
    const D down = _mm512_maskz_mov_pd(
        _mm512_cmp_pd_mask(diff, broadcast(-0.5), _CMP_LE_OQ), one);
    return copysign(sub(add(t, up), down), x);
  }
  static M cmp_lt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static unsigned mask_bits(M m) { return m; }
  static D select(M m, D a, D b) { return _mm512_mask_blend_pd(m, b, a); }

  static I iload(const std::int64_t* p) { return _mm512_loadu_si512(p); }
  static void istore(std::int64_t* p, I a) { _mm512_storeu_si512(p, a); }
  static I ibroadcast(std::int64_t x) { return _mm512_set1_epi64(x); }
  static I iadd(I a, I b) { return _mm512_add_epi64(a, b); }
  static I isub(I a, I b) { return _mm512_sub_epi64(a, b); }
  static I iand(I a, I b) { return _mm512_and_si512(a, b); }
  static I ineg(I a) { return _mm512_sub_epi64(_mm512_setzero_si512(), a); }
  /// vpsllvq / vpsravq: a count of 64 or more clears / sign-fills the
  /// lane, where the scalar shift_signed is undefined.
  static I ishl(I a, I count) {
    return _mm512_maskz_sllv_epi64(kAllLanes, a, count);
  }
  static I isra(I a, I count) {
    return _mm512_maskz_srav_epi64(kAllLanes, a, count);
  }
  static M icmp_lt(I a, I b) { return _mm512_cmplt_epi64_mask(a, b); }
  static M icmp_eq(I a, I b) { return _mm512_cmpeq_epi64_mask(a, b); }
  static I iselect(M m, I a, I b) { return _mm512_mask_blend_epi64(m, b, a); }
  static unsigned imask_bits(M m) { return m; }
  static D dselect(M m, D a, D b) { return _mm512_mask_blend_pd(m, b, a); }
  /// vcvttpd2qq truncates like static_cast<std::int64_t>.
  static I to_int_exact(D x) { return _mm512_cvttpd_epi64(x); }
  /// vcvtqq2pd rounds to nearest like static_cast<double>.
  static D to_double_exact(I x) { return _mm512_cvtepi64_pd(x); }
  static D gather(const double* base, I idx) {
    return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), kAllLanes, idx, base,
                                    sizeof(double));
  }
};

#endif  // __AVX512F__ && __AVX512DQ__

// ------------------------------------------------------- NEON backend

#if defined(__ARM_NEON) && defined(__aarch64__)

/// 2 double lanes / 2 int64 lanes per vector.  min/max are composed from
/// cmp + select by the kernels (never vminq/vmaxq, whose NaN semantics
/// differ from std::min/std::max); conversions use the AArch64 exact
/// convert instructions, which match the scalar casts on the full range.
struct NeonTraits {
  static constexpr std::size_t kWidth = 2;

  using D = float64x2_t;
  using I = int64x2_t;
  using M = uint64x2_t;

  static D load(const double* p) { return vld1q_f64(p); }
  static void store(double* p, D a) { vst1q_f64(p, a); }
  static D broadcast(double x) { return vdupq_n_f64(x); }
  static D add(D a, D b) { return vaddq_f64(a, b); }
  static D sub(D a, D b) { return vsubq_f64(a, b); }
  static D mul(D a, D b) { return vmulq_f64(a, b); }
  static D div(D a, D b) { return vdivq_f64(a, b); }
  static D floor(D a) { return vrndmq_f64(a); }
  static D trunc(D a) { return vrndq_f64(a); }
  static D copysign(D mag, D sgn) {
    return vbslq_f64(vdupq_n_u64(0x8000000000000000ull), sgn, mag);
  }
  static D round_ties_away(D x) {
    const D t = trunc(x);
    const D diff = sub(x, t);
    const D one = broadcast(1.0);
    const D zero = broadcast(0.0);
    const D up = vbslq_f64(vcgeq_f64(diff, broadcast(0.5)), one, zero);
    const D down = vbslq_f64(vcleq_f64(diff, broadcast(-0.5)), one, zero);
    return copysign(sub(add(t, up), down), x);
  }
  static M cmp_lt(D a, D b) { return vcltq_f64(a, b); }
  static unsigned mask_bits(M m) {
    return static_cast<unsigned>(vgetq_lane_u64(m, 0) & 1u) |
           (static_cast<unsigned>(vgetq_lane_u64(m, 1) & 1u) << 1);
  }
  static D select(M m, D a, D b) { return vbslq_f64(m, a, b); }

  static I iload(const std::int64_t* p) { return vld1q_s64(p); }
  static void istore(std::int64_t* p, I a) { vst1q_s64(p, a); }
  static I ibroadcast(std::int64_t x) { return vdupq_n_s64(x); }
  static I iadd(I a, I b) { return vaddq_s64(a, b); }
  static I isub(I a, I b) { return vsubq_s64(a, b); }
  static I iand(I a, I b) { return vandq_s64(a, b); }
  static I ineg(I a) { return vnegq_s64(a); }
  /// NEON's signed shift takes a signed count: negative = arithmetic
  /// right, exactly shift_signed's contract.
  static I ishl(I a, I count) { return vshlq_s64(a, count); }
  static I isra(I a, I count) { return vshlq_s64(a, vnegq_s64(count)); }
  static M icmp_lt(I a, I b) { return vcltq_s64(a, b); }
  static M icmp_eq(I a, I b) { return vceqq_s64(a, b); }
  static I iselect(M m, I a, I b) { return vbslq_s64(m, a, b); }
  static unsigned imask_bits(M m) { return mask_bits(m); }
  static D dselect(M m, D a, D b) { return vbslq_f64(m, a, b); }
  static I to_int_exact(D x) { return vcvtq_s64_f64(x); }
  static D to_double_exact(I x) { return vcvtq_f64_s64(x); }
  /// NEON has no gather: two lane loads.
  static D gather(const double* base, I idx) {
    return vcombine_f64(vld1_f64(base + vgetq_lane_s64(idx, 0)),
                        vld1_f64(base + vgetq_lane_s64(idx, 1)));
  }
};

#endif  // __ARM_NEON && __aarch64__

}  // namespace roclk::simd
