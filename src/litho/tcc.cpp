#include "litho/tcc.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"
#include "fft/fft.hpp"

namespace ganopc::litho {

namespace {

using cdouble = std::complex<double>;

constexpr int kPowerIterations = 40;  // subspace-iteration sweeps

// One frequency sample inside the extended pupil support.
struct FreqPoint {
  std::int32_t row, col;  // unshifted grid indices
  double fx, fy;          // cycles/nm
};

// Dense source discretization on a polar grid inside the annulus; weights
// uniform per unit area and normalized to 1.
struct SourceSample {
  double fx, fy, weight;
};

std::vector<SourceSample> dense_source(const OpticsConfig& cfg, int count) {
  const int rings = std::max(2, static_cast<int>(std::round(std::sqrt(count / 6.0))));
  std::vector<SourceSample> samples;
  const double cutoff = cfg.cutoff();
  double total = 0.0;
  for (int r = 0; r < rings; ++r) {
    const double sr0 = cfg.sigma_inner + (cfg.sigma_outer - cfg.sigma_inner) * r / rings;
    const double sr1 =
        cfg.sigma_inner + (cfg.sigma_outer - cfg.sigma_inner) * (r + 1) / rings;
    const double mid = 0.5 * (sr0 + sr1);
    const double ring_area = sr1 * sr1 - sr0 * sr0;
    const int per_ring = std::max(
        4, static_cast<int>(std::round(count * mid /
                                       (0.5 * (cfg.sigma_inner + cfg.sigma_outer) * rings))));
    for (int a = 0; a < per_ring; ++a) {
      const double theta = 2.0 * M_PI * (a + 0.5 * (r % 2)) / per_ring;
      SourceSample s;
      s.fx = mid * cutoff * std::cos(theta);
      s.fy = mid * cutoff * std::sin(theta);
      s.weight = ring_area / per_ring;
      total += s.weight;
      samples.push_back(s);
    }
  }
  for (auto& s : samples) s.weight /= total;
  return samples;
}

// Pupil function (amplitude + defocus phase) at frequency (fx, fy).
cdouble pupil(const OpticsConfig& cfg, double fx, double fy) {
  const double f2 = fx * fx + fy * fy;
  const double c = cfg.cutoff();
  if (f2 >= c * c) return {0.0, 0.0};
  if (cfg.defocus_nm == 0.0) return {1.0, 0.0};
  const double phase = -M_PI * cfg.wavelength_nm * cfg.defocus_nm * f2;
  return {std::cos(phase), std::sin(phase)};
}

// One source sample's share w_s p_s p_s^H of the TCC operator, with the
// shifted pupil p_s kept only where it is nonzero.
struct SourceFactor {
  double weight = 0.0;
  std::vector<std::uint32_t> index;  // support indices, ascending
  std::vector<cdouble> pupil;        // p_s at those indices
};

// out = T v = sum_s (w_s p_s) (p_s^H v), source samples ascending. Costs
// 2 * sum_s nnz(p_s) complex multiply-adds instead of n^2 for a dense T.
void apply(const std::vector<SourceFactor>& factors, const std::vector<cdouble>& v,
           std::vector<cdouble>& out) {
  out.assign(v.size(), cdouble{0.0, 0.0});
  for (const SourceFactor& f : factors) {
    cdouble dot{0.0, 0.0};
    for (std::size_t q = 0; q < f.index.size(); ++q)
      dot += std::conj(f.pupil[q]) * v[f.index[q]];
    for (std::size_t q = 0; q < f.index.size(); ++q)
      out[f.index[q]] += (f.weight * f.pupil[q]) * dot;
  }
}

// Modified Gram-Schmidt orthonormalization of k column vectors of length n.
void orthonormalize(std::vector<std::vector<cdouble>>& basis) {
  for (std::size_t i = 0; i < basis.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      cdouble dot{0.0, 0.0};
      for (std::size_t p = 0; p < basis[i].size(); ++p)
        dot += std::conj(basis[j][p]) * basis[i][p];
      for (std::size_t p = 0; p < basis[i].size(); ++p)
        basis[i][p] -= dot * basis[j][p];
    }
    double norm2 = 0.0;
    for (const auto& v : basis[i]) norm2 += std::norm(v);
    const double inv = norm2 > 0 ? 1.0 / std::sqrt(norm2) : 0.0;
    for (auto& v : basis[i]) v *= inv;
  }
}

}  // namespace

TccKernelSet compute_tcc_kernels(const OpticsConfig& config, std::int32_t grid_size,
                                 std::int32_t pixel_nm, int num_kernels,
                                 const TccOptions& options) {
  GANOPC_CHECK_MSG(config.valid(), "invalid optics configuration");
  GANOPC_CHECK_MSG(fft::is_pow2(static_cast<std::size_t>(grid_size)),
                   "grid size must be a power of two");
  GANOPC_CHECK(num_kernels > 0);
  GANOPC_CHECK_MSG(!options.source_points.empty() || options.source_samples > 8,
                   "dense source discretization needs more than 8 samples");
  const double df = 1.0 / (static_cast<double>(grid_size) * pixel_nm);
  const double support = (1.0 + config.sigma_outer) * config.cutoff();
  GANOPC_CHECK_MSG(support < 0.5 / pixel_nm, "pixel size too coarse for the pupil");

  // Enumerate grid frequencies inside the extended pupil support.
  std::vector<FreqPoint> points;
  for (std::int32_t r = 0; r < grid_size; ++r) {
    const std::int32_t rr = r <= grid_size / 2 ? r : r - grid_size;
    const double fy = rr * df;
    for (std::int32_t c = 0; c < grid_size; ++c) {
      const std::int32_t cc = c <= grid_size / 2 ? c : c - grid_size;
      const double fx = cc * df;
      if (fx * fx + fy * fy <= support * support) points.push_back({r, c, fx, fy});
    }
  }
  const std::size_t n = points.size();
  GANOPC_CHECK_MSG(static_cast<int>(n) >= num_kernels,
                   "pupil support smaller than requested kernel count");

  std::vector<SourceSample> source;
  if (options.source_points.empty()) {
    source = dense_source(config, options.source_samples);
  } else {
    double total = 0.0;
    for (const auto& p : options.source_points) {
      GANOPC_CHECK_MSG(std::isfinite(p.fx) && std::isfinite(p.fy) &&
                           std::isfinite(p.weight) && p.weight > 0.0,
                       "tcc: explicit source points need finite positive weights");
      source.push_back({p.fx, p.fy, p.weight});
      total += p.weight;
    }
    for (auto& s : source) s.weight /= total;
  }

  // The Hermitian TCC operator T = sum_s w_s p_s p_s^H, p_s the shifted
  // pupil of one source sample, is never assembled: each factor keeps only
  // the support indices where p_s is nonzero, and the diagonal (for the
  // trace) accumulates over s ascending, as a row-by-row assembly would.
  std::vector<SourceFactor> factors(source.size());
  std::vector<double> diagonal(n, 0.0);
  for (std::size_t s = 0; s < source.size(); ++s) {
    SourceFactor& f = factors[s];
    f.weight = source[s].weight;
    for (std::size_t i = 0; i < n; ++i) {
      const cdouble p =
          pupil(config, source[s].fx + points[i].fx, source[s].fy + points[i].fy);
      if (p == cdouble{0.0, 0.0}) continue;
      f.index.push_back(static_cast<std::uint32_t>(i));
      f.pupil.push_back(p);
      diagonal[i] += ((f.weight * p) * std::conj(p)).real();
    }
  }

  // Subspace iteration for the leading eigenpairs.
  Prng rng(options.seed);
  std::vector<std::vector<cdouble>> basis(static_cast<std::size_t>(num_kernels));
  for (auto& vec : basis) {
    vec.resize(n);
    for (auto& v : vec) v = {rng.normal(), rng.normal()};
  }
  orthonormalize(basis);
  std::vector<std::vector<cdouble>> product(basis.size());
  for (int it = 0; it < kPowerIterations; ++it) {
    parallel_for(0, basis.size(), [&](std::size_t k) {
      apply(factors, basis[k], product[k]);
    }, /*serial_threshold=*/1);
    std::swap(basis, product);
    orthonormalize(basis);
  }

  // Rayleigh quotients give the eigenvalues.
  std::vector<double> eigenvalues(basis.size(), 0.0);
  parallel_for(0, basis.size(), [&](std::size_t k) {
    apply(factors, basis[k], product[k]);
    cdouble acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) acc += std::conj(basis[k][i]) * product[k][i];
    eigenvalues[k] = acc.real();
  }, /*serial_threshold=*/1);
  // Sort by descending eigenvalue.
  std::vector<std::size_t> order(basis.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return eigenvalues[a] > eigenvalues[b]; });

  double trace = 0.0;
  for (const double d : diagonal) trace += d;

  TccKernelSet result;
  const std::size_t grid_px = static_cast<std::size_t>(grid_size) * grid_size;
  double captured = 0.0;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t k = order[rank];
    GANOPC_CHECK_MSG(std::isfinite(eigenvalues[k]),
                     "tcc: eigensolve produced a non-finite eigenvalue "
                     "(poisoned optics?)");
    const double lambda = std::max(eigenvalues[k], 0.0);
    captured += lambda;
    std::vector<std::complex<float>> kernel(grid_px, {0.0f, 0.0f});
    for (std::size_t i = 0; i < n; ++i) {
      kernel[static_cast<std::size_t>(points[i].row) * grid_size + points[i].col] = {
          static_cast<float>(basis[k][i].real()), static_cast<float>(basis[k][i].imag())};
    }
    result.kernels_hat.push_back(std::move(kernel));
    result.weights.push_back(static_cast<float>(lambda));
  }
  result.captured_energy = trace > 0.0 ? captured / trace : 0.0;
  return result;
}

}  // namespace ganopc::litho
