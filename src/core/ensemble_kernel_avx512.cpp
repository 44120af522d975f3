// AVX-512 (F + DQ) backend of the ensemble SIMD kernel.  This TU is the
// only one in core/ compiled with -mavx512f -mavx512dq (see
// src/core/CMakeLists.txt), and only when the toolchain accepts them;
// EnsembleSimulator dispatches here strictly behind runtime CPU detection
// (simd::active_backend), so the binary stays runnable on x86 without
// AVX-512.  No -mfma: FMA contraction would change results, and the
// kernel's bit-exactness contract forbids it.
#include "ensemble_simd_kernel.hpp"

#ifdef ROCLK_SIMD_HAVE_AVX512

namespace roclk::core::detail {

void run_chunk_simd_avx512(const SimdChunkArgs& args) {
  run_chunk_simd_impl<simd::Avx512Traits>(args);
}

}  // namespace roclk::core::detail

#endif  // ROCLK_SIMD_HAVE_AVX512
