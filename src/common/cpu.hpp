// Runtime CPU feature probe and SIMD dispatch level (DESIGN.md §12).
//
// The FFT lane kernels (the 8-lane butterflies and the SOCS element-wise ops,
// fft/fft_kernels.hpp) ship two implementations: a portable scalar path and
// an AVX2+FMA path compiled in one translation unit (fft/lanes8_avx2.cpp)
// with -mavx2 -mfma. Which one runs is a process-wide *dispatch level*,
// resolved exactly once from
//
//   GANOPC_SIMD = scalar | avx2 | auto   (unset == auto)
//
// crossed with a cpuid probe: `avx2` silently degrades to scalar on hardware
// without AVX2+FMA (with a one-line warning) so a pinned env var can never
// produce SIGILL. The scalar implementation stays compiled and callable
// regardless of the active level — the conformance test tier differentially
// checks the two arms against each other in one process via
// `set_simd_level`.
#pragma once

namespace ganopc {

enum class SimdLevel {
  kScalar = 0,  ///< portable C++, no ISA assumptions beyond the baseline build
  kAvx2 = 1,    ///< AVX2 + FMA translation units (x86-64 only)
};

/// "scalar" / "avx2" — stable names used by GANOPC_SIMD and log lines.
const char* simd_level_name(SimdLevel level);

/// True iff this CPU (and OS, via OSXSAVE) supports AVX2 *and* FMA.
/// Always false on non-x86 builds.
bool cpu_supports_avx2_fma();

/// Pure resolution of (env value, hardware capability) -> dispatch level.
/// `env` may be nullptr (unset). Recognised values: "", "auto", "scalar",
/// "avx2" (case-sensitive, matching the documented spelling). Unrecognised
/// values behave like "auto" and set *recognized=false so the caller can
/// warn. Exposed separately from `simd_level()` so the selection logic is
/// unit-testable on any machine, including the no-AVX2 cases.
SimdLevel resolve_simd_level(const char* env, bool hw_avx2,
                             bool* recognized = nullptr);

/// The active dispatch level: resolved from GANOPC_SIMD x cpuid on first
/// call, cached for the process lifetime. Thread-safe.
SimdLevel simd_level();

/// Test hook: force the active level at runtime (both directions). Forcing
/// kAvx2 on hardware without AVX2+FMA is a checked error — tests must skip
/// instead. Not intended for production code paths.
void set_simd_level(SimdLevel level);

}  // namespace ganopc
