// FFT execution plans: per-size twiddle-factor and bit-reversal tables.
//
// The lithography hot path runs thousands of same-size transforms (1 mask FFT
// + N_h kernel IFFTs per aerial image, twice that per gradient). Recomputing
// sin/cos per stage and chaining w *= wlen per butterfly costs time and
// accumulates rounding error; a plan computes each table once per size and is
// shared by every transform of that size for the lifetime of the process.
//
// Plans are immutable after construction, so concurrent use from any number
// of threads is safe; `plan_for` serializes only the (rare) first lookup of a
// new size.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ganopc::fft {

using cfloat = std::complex<float>;

struct FftPlan {
  /// Transform length (power of two).
  std::size_t n = 0;
  /// Bit-reversal permutation: element i swaps with bitrev[i].
  std::vector<std::uint32_t> bitrev;
  /// Forward twiddles grouped contiguously per butterfly stage, so every
  /// stage loads them with unit stride: the stage of length `len` owns the
  /// half = len/2 entries starting at offset len/2 - 1 (stage halves 1, 2,
  /// 4, ... sum to a closed-form prefix), with stage_twiddle[len/2 - 1 + k]
  /// = exp(-2*pi*i*k/len) rounded to float. Total size n - 1. The inverse
  /// transform conjugates.
  std::vector<cfloat> stage_twiddle;

  explicit FftPlan(std::size_t n);
};

/// The process-wide plan for size n (computed on first use, cached forever).
/// Thread-safe; the returned reference stays valid for the process lifetime.
/// Throws unless n is a nonzero power of two.
const FftPlan& plan_for(std::size_t n);

}  // namespace ganopc::fft
