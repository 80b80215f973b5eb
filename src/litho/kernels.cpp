#include "litho/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "fft/fft.hpp"

namespace ganopc::litho {

namespace {

using cfloat = std::complex<float>;
using Support = SocsKernels::Support;

/// Per-row and per-column "holds a nonzero bin" flags of one spectrum.
struct SupportFlags {
  explicit SupportFlags(std::size_t n) : row(n, 0), col(n, 0) {}
  void mark(std::size_t r, std::size_t c) { row[r] = col[c] = 1; }
  Support collect() const {
    Support s;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i]) s.rows.push_back(i);
      if (col[i]) s.cols.push_back(i);
    }
    return s;
  }
  std::vector<char> row, col;
};

/// The indices (N - i) mod N of `idx`, ascending.
std::vector<std::size_t> mirror(const std::vector<std::size_t>& idx, std::size_t n) {
  std::vector<std::size_t> out;
  out.reserve(idx.size());
  for (const std::size_t i : idx) out.push_back((n - i) % n);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void SocsKernels::validate_geometry() const {
  GANOPC_CHECK_MSG(config_.valid(), "invalid optics configuration");
  GANOPC_CHECK_MSG(fft::is_pow2(static_cast<std::size_t>(grid_)),
                   "grid size must be a power of two");
  GANOPC_CHECK(pixel_nm_ > 0);
  // The grid must resolve the full pupil: the highest passed frequency is
  // (1 + sigma_outer) * NA / lambda, which must be below Nyquist.
  const double f_max = (1.0 + config_.sigma_outer) * config_.cutoff();
  const double nyquist = 0.5 / pixel_nm_;
  GANOPC_CHECK_MSG(f_max < nyquist, "pixel size too coarse for the pupil: f_max="
                                        << f_max << " >= nyquist=" << nyquist);
}

SocsKernels::SocsKernels(const OpticsConfig& config, std::int32_t grid_size,
                         std::int32_t pixel_nm, TccKernelSet set)
    : config_(config), grid_(grid_size), pixel_nm_(pixel_nm) {
  validate_geometry();
  GANOPC_CHECK_MSG(!set.kernels_hat.empty() &&
                       set.kernels_hat.size() == set.weights.size(),
                   "kernel set must carry one weight per kernel");
  const auto un = static_cast<std::size_t>(grid_);
  const std::size_t npx = un * un;
  for (std::size_t k = 0; k < set.kernels_hat.size(); ++k) {
    GANOPC_CHECK_MSG(set.kernels_hat[k].size() == npx,
                     "kernel " << k << " is not on the " << grid_ << "x" << grid_
                               << " grid");
    GANOPC_CHECK_MSG(std::isfinite(set.weights[k]) && set.weights[k] >= 0.0f,
                     "kernel weights must be finite and nonnegative");
    GANOPC_CHECK_MSG(k == 0 || set.weights[k] <= set.weights[k - 1],
                     "kernel weights must be nonincreasing");
    SupportFlags live(un);
    const std::vector<cfloat>& hat = set.kernels_hat[k];
    for (std::size_t r = 0; r < un; ++r)
      for (std::size_t c = 0; c < un; ++c)
        if (hat[r * un + c] != cfloat{}) live.mark(r, c);
    push_kernel(std::move(set.kernels_hat[k]), live.collect(), set.weights[k]);
  }
  GANOPC_CHECK_MSG(std::isfinite(set.captured_energy) &&
                       set.captured_energy >= 0.0 && set.captured_energy <= 1.0 + 1e-9,
                   "captured_energy must be a fraction in [0, 1]");
  captured_energy_ = std::min(set.captured_energy, 1.0);
}

SocsKernels::SocsKernels(const OpticsConfig& config, std::int32_t grid_size,
                         std::int32_t pixel_nm)
    : config_(config), grid_(grid_size), pixel_nm_(pixel_nm) {
  validate_geometry();

  const auto points = sample_annular_source(config, config.num_kernels);
  const auto un = static_cast<std::size_t>(grid_);
  const double df = 1.0 / (static_cast<double>(grid_) * pixel_nm);
  const double cutoff2 = config.cutoff() * config.cutoff();

  freq_kernels_.reserve(points.size());
  supports_.reserve(points.size());
  supports_flipped_.reserve(points.size());
  weights_.reserve(points.size());
  std::vector<std::int32_t> box_cols;
  for (const auto& p : points) {
    std::vector<cfloat> hat(un * un, {0.0f, 0.0f});
    SupportFlags live(un);
    // A bin passes the pupil test only if gx^2 and gy^2 are each below
    // cutoff^2 (g2 is no smaller than either square), so only the pupil's
    // bounding rows and columns are visited; every other bin stays zero.
    box_cols.clear();
    for (std::int32_t c = 0; c < grid_; ++c) {
      const std::int32_t cc = c <= grid_ / 2 ? c : c - grid_;
      const double gx = cc * df + p.fx;
      if (gx * gx < cutoff2) box_cols.push_back(c);
    }
    for (std::int32_t r = 0; r < grid_; ++r) {
      const std::int32_t rr = r <= grid_ / 2 ? r : r - grid_;  // wrapped index
      const double fy = rr * df;
      if ((fy + p.fy) * (fy + p.fy) >= cutoff2) continue;
      for (const std::int32_t c : box_cols) {
        const std::int32_t cc = c <= grid_ / 2 ? c : c - grid_;
        // Pupil evaluated at the frequency shifted by the source point: an
        // oblique illumination tilts the spectrum across the pupil.
        const std::complex<double> v = pupil(config, cc * df + p.fx, fy + p.fy);
        const cfloat bin{static_cast<float>(v.real()), static_cast<float>(v.imag())};
        if (bin == cfloat{}) continue;
        hat[static_cast<std::size_t>(r) * un + static_cast<std::size_t>(c)] = bin;
        live.mark(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
      }
    }
    push_kernel(std::move(hat), live.collect(), static_cast<float>(p.weight));
  }
}

void SocsKernels::push_kernel(std::vector<cfloat> hat, Support support, float weight) {
  const auto n = static_cast<std::size_t>(grid_);
  supports_flipped_.push_back({mirror(support.rows, n), mirror(support.cols, n)});
  supports_.push_back(std::move(support));
  freq_kernels_.push_back(std::move(hat));
  weights_.push_back(weight);
}

const std::vector<std::complex<float>>& SocsKernels::freq_kernel(int k) const {
  return freq_kernels_.at(static_cast<std::size_t>(k));
}

std::vector<std::complex<float>> SocsKernels::spatial_kernel(int k) const {
  auto spatial = freq_kernels_.at(static_cast<std::size_t>(k));
  fft::fft_2d(spatial, static_cast<std::size_t>(grid_), static_cast<std::size_t>(grid_),
              /*inverse=*/true);
  fft::fftshift_2d(spatial, static_cast<std::size_t>(grid_),
                   static_cast<std::size_t>(grid_));
  return spatial;
}

}  // namespace ganopc::litho
