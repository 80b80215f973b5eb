// Radix-2 complex 2-D FFT used by the Hopkins lithography engine. Every
// row and column pass runs on the split-complex batch kernel fft_lanes8
// (fft_kernels.hpp); a 1-D transform is a one-row 2-D transform.
//
// Conventions:
//   forward:  X[k] = sum_n x[n] * exp(-2*pi*i*k*n/N)      (no scaling)
//   inverse:  x[n] = (1/N) * sum_k X[k] * exp(+2*pi*i*k*n/N)
// 2-D transforms apply the 1-D transform along rows then columns; the inverse
// 2-D transform scales by 1/(W*H). Sizes must be powers of two.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace ganopc::fft {

using cfloat = std::complex<float>;

/// True iff n is a power of two (and nonzero).
bool is_pow2(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

/// In-place 2-D FFT of a row-major height x width grid. Power-of-two dims.
/// Parallelized over rows/columns via the shared thread pool.
void fft_2d(cfloat* data, std::size_t height, std::size_t width, bool inverse);

/// Convenience overload for vectors (size must equal height*width).
void fft_2d(std::vector<cfloat>& data, std::size_t height, std::size_t width, bool inverse);

/// Forward 2-D FFT of a real height x width grid into its full complex
/// spectrum (same layout as fft_2d on a zero-imaginary input, up to
/// round-off). Costs roughly half a complex transform: row pairs are packed
/// into single complex transforms and only columns [0, W/2] are transformed,
/// the rest following from Hermitian symmetry. `out` must hold height*width.
void rfft_2d(const float* in, cfloat* out, std::size_t height, std::size_t width);

/// Inverse 2-D FFT of a Hermitian spectrum straight to its real signal
/// (the counterpart of rfft_2d, including the 1/(W*H) scaling). Only columns
/// [0, W/2] of `spec` are read — and clobbered as scratch. Passing a
/// non-Hermitian spectrum silently drops its anti-symmetric part.
void irfft_2d(cfloat* spec, float* out, std::size_t height, std::size_t width);

/// Band-limited (Fourier zero-padding) up-sampling of a real grid by an
/// integer factor. Exact for signals whose spectrum vanishes above the input
/// Nyquist — true of aerial images, whose bandwidth is set by the pupil.
/// Output is (h*factor) x (w*factor); values reproduce the input at the
/// original sample points up to FFT round-off. Both dims must be at least 2.
std::vector<float> fourier_upsample_2d(const std::vector<float>& in, std::size_t height,
                                       std::size_t width, std::size_t factor);

}  // namespace ganopc::fft
