#include "roclk/common/simd.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <string_view>

namespace roclk::simd {

namespace {

/// Programmatic override (tests/benches).  kUnset sentinel keeps the
/// atomic lock-free; reads happen on every EnsembleSimulator::run call.
constexpr int kUnset = -1;
std::atomic<int> g_override{kUnset};

std::string lowercase(std::string_view text) {
  std::string lower{text};
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return lower;
}

void warn_once(const std::string& message) {
  static std::once_flag flag;
  std::call_once(flag, [&message] {
    std::fprintf(stderr, "roclk: %s\n", message.c_str());
  });
}

/// ROCLK_SIMD environment request, parsed once per process.
/// 0 = no request (unset / "native" / "auto"), else 1 + Backend value.
int env_request() {
  static const int request = [] {
    // Backend selection only — never feeds simulation results, so the
    // deterministic-output contract holds for every ROCLK_SIMD value.
    const char* raw = std::getenv("ROCLK_SIMD");  // roclk-lint: allow(env-source)
    if (raw == nullptr || raw[0] == '\0') return 0;
    const std::string name = lowercase(raw);
    if (name == "native" || name == "auto") return 0;
    const auto parsed = parse_backend(name);
    if (!parsed.has_value()) {
      warn_once("ROCLK_SIMD=" + std::string{raw} +
                " is not a backend (scalar | avx2 | avx512 | neon | native); "
                "using the native backend");
      return 0;
    }
    return 1 + static_cast<int>(*parsed);
  }();
  return request;
}

/// Degrades an unusable backend request to kScalar with one warning.
Backend usable_or_scalar(Backend requested, const char* origin) {
  if (!backend_compiled(requested)) {
    warn_once(std::string{origin} + " requested SIMD backend '" +
              to_string(requested) +
              "' but it is not compiled into this binary; falling back to "
              "scalar");
    return Backend::kScalar;
  }
  if (!backend_cpu_supported(requested)) {
    warn_once(std::string{origin} + " requested SIMD backend '" +
              to_string(requested) +
              "' but this CPU does not support it; falling back to scalar");
    return Backend::kScalar;
  }
  return requested;
}

}  // namespace

std::optional<Backend> parse_backend(std::string_view name) {
  const std::string lower = lowercase(name);
  for (const Backend backend : {Backend::kScalar, Backend::kAvx2,
                                Backend::kAvx512, Backend::kNeon}) {
    if (lower == to_string(backend)) return backend;
  }
  return std::nullopt;
}

bool backend_compiled(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#ifdef ROCLK_SIMD_HAVE_AVX2
      return true;
#else
      return false;
#endif
    case Backend::kAvx512:
#ifdef ROCLK_SIMD_HAVE_AVX512
      return true;
#else
      return false;
#endif
    case Backend::kNeon:
#ifdef ROCLK_SIMD_HAVE_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool backend_cpu_supported(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Backend::kAvx512:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
      // libgcc reports AVX-512 only when the OS also saves the ZMM state.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(__aarch64__)
      return true;  // AdvSIMD is architecturally mandatory on AArch64
#else
      return false;
#endif
  }
  return false;
}

Backend native_backend() {
  static const Backend native = [] {
    for (Backend candidate :
         {Backend::kAvx512, Backend::kAvx2, Backend::kNeon}) {
      if (backend_compiled(candidate) && backend_cpu_supported(candidate)) {
        return candidate;
      }
    }
    return Backend::kScalar;
  }();
  return native;
}

Backend active_backend() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced != kUnset) {
    return usable_or_scalar(static_cast<Backend>(forced),
                            "set_backend_override");
  }
  const int request = env_request();
  if (request != 0) {
    return usable_or_scalar(static_cast<Backend>(request - 1), "ROCLK_SIMD");
  }
  return native_backend();
}

void set_backend_override(std::optional<Backend> backend) {
  g_override.store(backend.has_value() ? static_cast<int>(*backend) : kUnset,
                   std::memory_order_relaxed);
}

}  // namespace roclk::simd
