#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "fft/fft.hpp"
#include "fft/fft_kernels.hpp"
#include "litho/kernels.hpp"

namespace ganopc::litho {
namespace {

OpticsConfig small_optics(int kernels = 8) {
  OpticsConfig cfg;
  cfg.num_kernels = kernels;
  return cfg;
}

/// Kernel k's n x n spectrum H_k_hat, expanded from its forward operand
/// blocks: zero outside support rows x support columns.
std::vector<std::complex<float>> dense_spectrum(const SocsKernels& kernels, int k) {
  const auto n = static_cast<std::size_t>(kernels.grid_size());
  const auto& sup = kernels.support(k);
  const std::span<const float> blocks = kernels.operand(k);
  std::vector<std::complex<float>> hat(n * n);
  for (std::size_t i = 0; i < sup.rows.size(); ++i)
    for (std::size_t c = 0; c < sup.cols.size(); ++c) {
      const float* lane =
          blocks.data() + (i / fft::kLanes * sup.cols.size() + c) * fft::kBlock + i % fft::kLanes;
      hat[sup.rows[i] * n + sup.cols[c]] = {lane[0], lane[fft::kLanes]};
    }
  return hat;
}

TEST(Kernels, ConstructsWithValidGeometry) {
  SocsKernels k(small_optics(), 64, 16);
  EXPECT_EQ(k.grid_size(), 64);
  EXPECT_EQ(k.pixel_nm(), 16);
  EXPECT_EQ(k.count(), 8);
}

TEST(Kernels, RejectsNonPow2Grid) {
  EXPECT_THROW(SocsKernels(small_optics(), 100, 16), Error);
}

TEST(Kernels, RejectsTooCoarsePixels) {
  // (1 + 0.8) * 1.35/193 = 0.0126 cycles/nm needs pixel < ~39.7nm.
  EXPECT_THROW(SocsKernels(small_optics(), 64, 64), Error);
  EXPECT_NO_THROW(SocsKernels(small_optics(), 64, 32));
}

TEST(Kernels, DcComponentPassesForAllKernels) {
  // Every source point lies inside the pupil (sigma <= 1), so the shifted
  // pupil always passes DC — a clear mask must image to nonzero intensity.
  SocsKernels k(small_optics(24), 64, 16);
  for (int i = 0; i < k.count(); ++i) {
    const auto hat = dense_spectrum(k, i);
    EXPECT_GT(std::abs(hat[0]), 0.9f) << "kernel " << i;
  }
}

TEST(Kernels, PupilIsBandlimited) {
  // Frequencies beyond (1 + sigma_out) * cutoff must be rejected.
  const OpticsConfig cfg = small_optics(8);
  SocsKernels k(cfg, 64, 16);
  const double df = 1.0 / (64.0 * 16.0);
  const double fmax = (1.0 + cfg.sigma_outer) * cfg.cutoff();
  for (int i = 0; i < k.count(); ++i) {
    const auto hat = dense_spectrum(k, i);
    for (std::int32_t r = 0; r < 64; ++r) {
      const std::int32_t rr = r <= 32 ? r : r - 64;
      for (std::int32_t c = 0; c < 64; ++c) {
        const std::int32_t cc = c <= 32 ? c : c - 64;
        const double f = std::hypot(rr * df, cc * df);
        if (f > fmax + df) {
          EXPECT_EQ(std::abs(hat[static_cast<std::size_t>(r) * 64 + c]), 0.0f);
        }
      }
    }
  }
}

TEST(Kernels, WeightsMatchSource) {
  SocsKernels k(small_optics(12), 64, 16);
  double sum = 0;
  for (int i = 0; i < k.count(); ++i) sum += k.weight(i);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Kernels, FlippedKernelIndexing) {
  // The flipped kernel H(-f), built here by index from the stored spectrum,
  // must be the transfer function of the mirrored PSF h(-x), and its nonzero
  // rows and columns must be support_flipped().
  SocsKernels k(small_optics(4), 32, 16);
  const std::size_t n = 32;
  for (int i = 0; i < k.count(); ++i) {
    const auto hat = dense_spectrum(k, i);
    std::vector<std::complex<float>> flip(n * n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        flip[r * n + c] = hat[((n - r) % n) * n + (n - c) % n];
    std::vector<std::complex<float>> psf = hat, psf_flip = flip;
    fft::fft_2d(psf, n, n, /*inverse=*/true);
    fft::fft_2d(psf_flip, n, n, /*inverse=*/true);
    std::vector<char> row(n, 0), col(n, 0);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) {
        const auto want = psf[((n - r) % n) * n + (n - c) % n];
        EXPECT_NEAR(psf_flip[r * n + c].real(), want.real(), 1e-6f) << r << "," << c;
        EXPECT_NEAR(psf_flip[r * n + c].imag(), want.imag(), 1e-6f) << r << "," << c;
        if (flip[r * n + c] != std::complex<float>{}) row[r] = col[c] = 1;
      }
    std::vector<std::size_t> rows, cols;
    for (std::size_t j = 0; j < n; ++j) {
      if (row[j]) rows.push_back(j);
      if (col[j]) cols.push_back(j);
    }
    EXPECT_EQ(k.support_flipped(i).rows, rows);
    EXPECT_EQ(k.support_flipped(i).cols, cols);
  }
}

TEST(Kernels, SpatialKernelEnergyConcentratedAtCenter) {
  // The PSF of a low-pass pupil must concentrate energy near the origin,
  // which the unshifted layout wraps to the four corners.
  SocsKernels k(small_optics(4), 128, 16);
  auto spatial = dense_spectrum(k, 0);
  fft::fft_2d(spatial, 128, 128, /*inverse=*/true);
  double total = 0, central = 0;
  for (std::int32_t r = 0; r < 128; ++r)
    for (std::int32_t c = 0; c < 128; ++c) {
      const double e = std::norm(spatial[static_cast<std::size_t>(r) * 128 + c]);
      total += e;
      if (std::min(r, 128 - r) <= 16 && std::min(c, 128 - c) <= 16) central += e;
    }
  EXPECT_GT(central / total, 0.8);
}

TEST(Kernels, DefocusAddsPhase) {
  OpticsConfig focus = small_optics(4);
  OpticsConfig defocus = focus;
  defocus.defocus_nm = 50.0;
  SocsKernels kf(focus, 64, 16), kd(defocus, 64, 16);
  // Same support, different phases somewhere off-DC.
  const auto hf = dense_spectrum(kf, 0);
  const auto hd = dense_spectrum(kd, 0);
  bool phase_differs = false;
  for (std::size_t i = 0; i < hf.size(); ++i) {
    EXPECT_NEAR(std::abs(hf[i]), std::abs(hd[i]), 1e-5f);
    if (std::abs(hf[i]) > 0.5f && std::abs(hf[i] - hd[i]) > 1e-3f) phase_differs = true;
  }
  EXPECT_TRUE(phase_differs);
}

}  // namespace
}  // namespace ganopc::litho
