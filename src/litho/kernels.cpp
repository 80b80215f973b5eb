#include "litho/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "fft/fft.hpp"
#include "fft/fft_kernels.hpp"

namespace ganopc::litho {

namespace {

using cfloat = std::complex<float>;
using fft::kBlock;
using fft::kLanes;

/// The operand blocks (SocsKernels::operand) of the spectrum `bin(r, c)`
/// over s.rows x s.cols.
template <typename Bin>
std::vector<float> operand_blocks(const SocsKernels::Support& s, const Bin& bin) {
  const std::size_t nc = s.cols.size();
  std::vector<float> out(fft::lane_groups(s.rows.size()) * nc * kBlock, 0.0f);
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    float* lane = out.data() + i / kLanes * nc * kBlock + i % kLanes;
    for (std::size_t c = 0; c < nc; ++c, lane += kBlock) {
      const cfloat v = bin(s.rows[i], s.cols[c]);
      lane[0] = v.real();
      lane[kLanes] = v.imag();
    }
  }
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

template <typename Bin>
void SocsKernels::push_kernel(std::span<const std::size_t> rows,
                              std::span<const std::size_t> cols, const Bin& bin, float weight) {
  // Flags of the rows and columns holding a nonzero bin, then of their
  // mirrors (n - i) mod n: the support of the flipped kernel H(-f).
  const auto n = static_cast<std::size_t>(grid_);
  std::vector<char> live(4 * n, 0);
  for (const std::size_t r : rows)
    for (const std::size_t c : cols)
      if (bin(r, c) != cfloat{})
        live[r] = live[n + c] = live[2 * n + (n - r) % n] = live[3 * n + (n - c) % n] = 1;
  Kernel kernel;
  kernel.weight = weight;
  std::vector<std::size_t>* lists[] = {&kernel.support.rows, &kernel.support.cols,
                                       &kernel.support_flipped.rows, &kernel.support_flipped.cols};
  for (std::size_t q = 0; q < 4; ++q)
    for (std::size_t i = 0; i < n; ++i)
      if (live[q * n + i]) lists[q]->push_back(i);
  kernel.operand = operand_blocks(kernel.support, bin);
  kernel.operand_flipped =
      operand_blocks(kernel.support_flipped, [&](std::size_t r, std::size_t c) {
        return bin((n - r) % n, (n - c) % n);
      });
  kernels_.push_back(std::move(kernel));
}

SocsKernels::SocsKernels(const OpticsConfig& config, std::int32_t grid_size,
                         std::int32_t pixel_nm, TccKernelSet set)
    : config_(config), grid_(grid_size), pixel_nm_(pixel_nm) {
  validate_geometry();
  GANOPC_CHECK_MSG(!set.kernels_hat.empty() &&
                       set.kernels_hat.size() == set.weights.size(),
                   "kernel set must carry one weight per kernel");
  const auto un = static_cast<std::size_t>(grid_);
  std::vector<std::size_t> every(un);
  std::iota(every.begin(), every.end(), std::size_t{0});
  for (std::size_t k = 0; k < set.kernels_hat.size(); ++k) {
    GANOPC_CHECK_MSG(set.kernels_hat[k].size() == un * un,
                     "kernel " << k << " is not on the " << grid_ << "x" << grid_
                               << " grid");
    GANOPC_CHECK_MSG(std::isfinite(set.weights[k]) && set.weights[k] >= 0.0f,
                     "kernel weights must be finite and nonnegative");
    GANOPC_CHECK_MSG(k == 0 || set.weights[k] <= set.weights[k - 1],
                     "kernel weights must be nonincreasing");
    const std::vector<cfloat>& hat = set.kernels_hat[k];
    push_kernel(
        every, every, [&](std::size_t r, std::size_t c) { return hat[r * un + c]; },
        set.weights[k]);
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
  const auto wrapped = [&](std::size_t i) {  // signed frequency index
    return static_cast<std::int32_t>(i) - (i <= un / 2 ? 0 : grid_);
  };

  // A bin passes the pupil test only if gx^2 and gy^2 are each below
  // cutoff^2 (g2 is no smaller than either square), so each kernel lives in
  // its pupil's bounding rows and columns. Only those bins are evaluated,
  // into one box-sized scratch reused for every kernel; `row_slot` and
  // `col_slot` map a grid row or column to its place in the box.
  std::vector<std::size_t> box_rows, box_cols, row_slot(un), col_slot(un);
  std::vector<cfloat> box;
  for (const auto& p : points) {
    box_rows.clear();
    box_cols.clear();
    for (std::size_t i = 0; i < un; ++i) {
      const double gx = wrapped(i) * df + p.fx, fy = wrapped(i) * df;
      if (gx * gx < cutoff2) {
        col_slot[i] = box_cols.size();
        box_cols.push_back(i);
      }
      if ((fy + p.fy) * (fy + p.fy) < cutoff2) {
        row_slot[i] = box_rows.size();
        box_rows.push_back(i);
      }
    }
    const std::size_t width = box_cols.size();
    box.resize(box_rows.size() * width);
    for (std::size_t i = 0; i < box_rows.size(); ++i) {
      const double fy = wrapped(box_rows[i]) * df;
      for (std::size_t j = 0; j < width; ++j) {
        // Pupil evaluated at the frequency shifted by the source point: an
        // oblique illumination tilts the spectrum across the pupil.
        const std::complex<double> v = pupil(config, wrapped(box_cols[j]) * df + p.fx, fy + p.fy);
        const cfloat bin{static_cast<float>(v.real()), static_cast<float>(v.imag())};
        box[i * width + j] = bin == cfloat{} ? cfloat{} : bin;  // -0 stays +0
      }
    }
    push_kernel(
        box_rows, box_cols,
        [&](std::size_t r, std::size_t c) { return box[row_slot[r] * width + col_slot[c]]; },
        static_cast<float>(p.weight));
  }
}

}  // namespace ganopc::litho
