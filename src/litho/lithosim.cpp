#include "litho/lithosim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "fft/fft.hpp"
#include "fft/fft_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ganopc::litho {

namespace {

using fft::cfloat;

/// Point `g` at the simulator geometry without reallocating when the pixel
/// count already matches.
void reshape_like(geom::Grid& g, std::int32_t n, std::int32_t pixel_nm,
                  const geom::Grid& src) {
  g.rows = n;
  g.cols = n;
  g.pixel_nm = pixel_nm;
  g.origin_x = src.origin_x;
  g.origin_y = src.origin_y;
  g.data.resize(static_cast<std::size_t>(n) * n);
}

// The one SOCS forward implementation (Eq. 2): mask FFT, per-kernel coherent
// fields A_k = IFFT(H_k_hat .* mask_hat) parallelized over kernels, then the
// intensity I = sum_k w_k |A_k|^2 reduced per pixel in ascending-k order.
// H_k_hat is zero outside its support rows, so only those rows are multiplied
// and inverse-transformed (DESIGN.md §7). Blocks only partition
// pixels/kernels — every thread count produces bit-identical output. Shared by LithoSim::aerial_into, the gradient's
// forward pass and threshold calibration, so tests cover one implementation.
void socs_forward(const SocsKernels& kernels, const geom::Grid& mask,
                  geom::Grid& aerial_image, LithoWorkspace& ws) {
  const std::int32_t n = kernels.grid_size();
  const auto un = static_cast<std::size_t>(n);
  const std::size_t npx = un * un;
  const int num_k = kernels.count();
  if (ws.ensure_forward(num_k, npx) && obs::metrics_enabled())
    obs::counter("litho.workspace.grows").inc();

  // Masks are real, so the forward transform runs the half-cost real-input
  // path; the full Hermitian spectrum comes out in the usual layout.
  fft::rfft_2d(mask.data.data(), ws.mask_hat.data(), un, un);

  for (int k = 0; k < num_k; ++k) ws.weights[static_cast<std::size_t>(k)] = kernels.weight(k);

  const fft::VecOps& ops = fft::vec_ops();
  // Coherent fields: one kernel per unit of work; each worker's nested FFT
  // parallelism degrades to serial inside the pool (no oversubscription).
  ThreadPool::instance().parallel_blocks(
      static_cast<std::size_t>(num_k),
      [&](std::size_t /*block*/, std::size_t kb, std::size_t ke) {
        for (std::size_t k = kb; k < ke; ++k) {
          cfloat* field = ws.fields[k].data();
          const cfloat* hat = kernels.freq_kernel(static_cast<int>(k)).data();
          const auto& rows = kernels.support(static_cast<int>(k)).rows;
          for (const std::size_t r : rows)
            ops.cmul(ws.mask_hat.data() + r * un, hat + r * un, field + r * un, un);
          fft::ifft_2d_rows(field, un, un, rows);
        }
      });

  reshape_like(aerial_image, n, kernels.pixel_nm(), mask);
  parallel_for_chunks(0, npx, [&](std::size_t b, std::size_t e) {
    double* acc = ws.acc.data();
    std::fill(acc + b, acc + e, 0.0);
    for (int k = 0; k < num_k; ++k) {
      const double w = ws.weights[static_cast<std::size_t>(k)];
      const cfloat* f = ws.fields[static_cast<std::size_t>(k)].data();
      ops.norm_weighted_accum(f + b, w, acc + b, e - b);
    }
    float* out = aerial_image.data.data();
    for (std::size_t i = b; i < e; ++i) out[i] = static_cast<float>(acc[i]);
  }, /*serial_threshold=*/1024);
}

// Threshold calibration: image a wide vertical stripe and take the intensity
// at its geometric edge, so large features print at drawn size. Runs through
// the same socs_forward path as every aerial image.
float calibrate_threshold(const SocsKernels& kernels) {
  const std::int32_t n = kernels.grid_size();
  geom::Grid stripe(n, n, kernels.pixel_nm());
  const std::int32_t c0 = n / 4, c1 = 3 * n / 4;
  for (std::int32_t r = 0; r < n; ++r)
    for (std::int32_t c = c0; c < c1; ++c) stripe.at(r, c) = 1.0f;

  geom::Grid intensity;
  LithoWorkspace ws;
  socs_forward(kernels, stripe, intensity, ws);
  // The geometric edge lies between pixel centers c0-1 and c0; average the
  // two along the stripe's mid row.
  const float* mid = intensity.data.data() + static_cast<std::size_t>(n / 2) * n;
  return 0.5f * (mid[c0 - 1] + mid[c0]);
}

}  // namespace

LithoWorkspace& thread_workspace() {
  static thread_local LithoWorkspace ws;
  return ws;
}

LithoSim::LithoSim(const OpticsConfig& optics, const ResistConfig& resist,
                   std::int32_t grid_size, std::int32_t pixel_nm)
    : kernels_(optics, grid_size, pixel_nm), resist_(resist) {
  GANOPC_CHECK(resist.sigmoid_alpha > 0.0f);
  threshold_ = resist.threshold > 0.0f ? resist.threshold : calibrate_threshold(kernels_);
}

LithoSim::LithoSim(SocsKernels kernels, const ResistConfig& resist)
    : kernels_(std::move(kernels)), resist_(resist) {
  GANOPC_CHECK(resist.sigmoid_alpha > 0.0f);
  threshold_ = resist.threshold > 0.0f ? resist.threshold : calibrate_threshold(kernels_);
}

void LithoSim::check_geometry(const geom::Grid& g) const {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     g.rows == grid_size() && g.cols == grid_size(),
                     "grid " << g.rows << "x" << g.cols
                             << " does not match simulator " << grid_size() << "x"
                             << grid_size());
}

void LithoSim::aerial_into(const geom::Grid& mask, geom::Grid& aerial_image,
                           LithoWorkspace& ws) const {
  GANOPC_OBS_SPAN("litho.aerial");
  check_geometry(mask);
  socs_forward(kernels_, mask, aerial_image, ws);
}

geom::Grid LithoSim::aerial(const geom::Grid& mask) const {
  geom::Grid out;
  aerial_into(mask, out, thread_workspace());
  return out;
}

geom::Grid LithoSim::print(const geom::Grid& aerial_image, float dose) const {
  check_geometry(aerial_image);
  GANOPC_CHECK(dose > 0.0f);
  geom::Grid z = aerial_image;
  for (auto& v : z.data) v = (v * dose >= threshold_) ? 1.0f : 0.0f;
  return z;
}

geom::Grid LithoSim::simulate(const geom::Grid& mask, float dose) const {
  GANOPC_OBS_SPAN("litho.simulate");
  return print(aerial(mask), dose);
}

std::vector<geom::Grid> LithoSim::simulate_batch(std::span<const geom::Grid> masks,
                                                 float dose) const {
  GANOPC_OBS_SPAN("litho.simulate_batch");
  if (obs::metrics_enabled())
    obs::counter("litho.simulate_batch.masks").inc(masks.size());
  GANOPC_CHECK(dose > 0.0f);
  for (const auto& m : masks) check_geometry(m);
  std::vector<geom::Grid> prints(masks.size());
  // Threshold 2: a single mask keeps the calling thread and its intra-mask
  // (per-kernel) parallelism; larger batches parallelize across masks, each
  // worker reusing its per-thread workspace. Output slot i only ever depends
  // on mask i, so scheduling cannot change results.
  parallel_for(0, masks.size(),
               [&](std::size_t i) { prints[i] = simulate(masks[i], dose); },
               /*serial_threshold=*/2);
  return prints;
}

geom::Grid LithoSim::relaxed_wafer(const geom::Grid& aerial_image, float dose) const {
  check_geometry(aerial_image);
  geom::Grid z = aerial_image;
  const float a = resist_.sigmoid_alpha;
  for (auto& v : z.data) v = 1.0f / (1.0f + std::exp(-a * (v * dose - threshold_)));
  return z;
}

LithoSim::ForwardResult LithoSim::forward_relaxed(const geom::Grid& mask_b,
                                                  const geom::Grid& target, float dose,
                                                  LithoWorkspace& ws) const {
  GANOPC_OBS_SPAN("litho.forward_relaxed");
  check_geometry(mask_b);
  check_geometry(target);
  GANOPC_CHECK(dose > 0.0f);
  ForwardResult result;
  socs_forward(kernels_, mask_b, result.aerial_image, ws);
  result.wafer_relaxed = relaxed_wafer(result.aerial_image, dose);
  double err = 0.0;
  for (std::size_t i = 0; i < target.data.size(); ++i) {
    const double d = static_cast<double>(result.wafer_relaxed.data[i]) - target.data[i];
    err += d * d;
  }
  result.error = err;
  return result;
}

LithoSim::ForwardResult LithoSim::forward_relaxed(const geom::Grid& mask_b,
                                                  const geom::Grid& target,
                                                  float dose) const {
  return forward_relaxed(mask_b, target, dose, thread_workspace());
}

void LithoSim::gradient_into(const geom::Grid& mask_b, const geom::Grid& target,
                             std::span<const float> doses, geom::Grid& grad_out,
                             LithoWorkspace& ws) const {
  GANOPC_OBS_SPAN("litho.gradient");
  check_geometry(mask_b);
  check_geometry(target);
  GANOPC_CHECK_MSG(!doses.empty(), "gradient needs at least one dose");
  for (const float d : doses) GANOPC_CHECK(d > 0.0f);
  const std::int32_t n = grid_size();
  const auto un = static_cast<std::size_t>(n);
  const std::size_t npx = un * un;
  const int num_k = kernels_.count();

  // Forward fields A_k are computed once and shared by every dose corner.
  socs_forward(kernels_, mask_b, ws.aerial_scratch, ws);
  if (ws.ensure_adjoint(num_k, npx) && obs::metrics_enabled())
    obs::counter("litho.workspace.grows").inc();

  double* acc = ws.acc.data();
  std::fill(acc, acc + npx, 0.0);
  const float alpha = resist_.sigmoid_alpha;
  // Dose corners accumulate serially (fixed order); within a dose, the
  // per-kernel adjoint transforms are independent and the per-pixel sum runs
  // in ascending-k order — deterministic at any thread count.
  for (const float dose : doses) {
    // X = dE/dI = 2 (Z - Z_t) .* alpha * dose * Z (1 - Z)   (real-valued);
    // the dose factor comes from Z = sigmoid(alpha (dose*I - I_th)).
    parallel_for_chunks(0, npx, [&](std::size_t b, std::size_t e) {
      const float* intensity = ws.aerial_scratch.data.data();
      float* x = ws.x.data();
      for (std::size_t i = b; i < e; ++i) {
        const float zi =
            1.0f / (1.0f + std::exp(-alpha * (intensity[i] * dose - threshold_)));
        x[i] = 2.0f * (zi - target.data[i]) * alpha * dose * zi * (1.0f - zi);
      }
    }, /*serial_threshold=*/1024);

    // dE/dM = sum_k w_k * 2 Re( (X .* conj(A_k)) correlated with h_k )
    //       = sum_k w_k * 2 Re( IFFT( FFT(X .* conj(A_k)) .* H_k_hat(-f) ) ).
    // This is the frequency-domain form of Eq. (14)'s two convolution terms
    // (conv with H and with H*), fused via the 2 Re(.) identity.
    const fft::VecOps& ops = fft::vec_ops();
    ThreadPool::instance().parallel_blocks(
        static_cast<std::size_t>(num_k),
        [&](std::size_t /*block*/, std::size_t kb, std::size_t ke) {
          for (std::size_t k = kb; k < ke; ++k) {
            cfloat* buf = ws.adjoint[k].data();
            ops.cmul_conj_real(ws.x.data(), ws.fields[k].data(), buf, npx);
            // Only the flipped kernel's support survives the product, so the
            // forward transform needs just its columns, and the inverse just
            // its rows.
            const auto& support = kernels_.support_flipped(static_cast<int>(k));
            fft::fft_2d_cols(buf, un, un, support.cols);
            const cfloat* hat_flipped = kernels_.freq_kernel_flipped(static_cast<int>(k)).data();
            for (const std::size_t r : support.rows)
              ops.cmul(buf + r * un, hat_flipped + r * un, buf + r * un, un);
            fft::ifft_2d_rows(buf, un, un, support.rows);
          }
        });

    parallel_for_chunks(0, npx, [&](std::size_t b, std::size_t e) {
      for (int k = 0; k < num_k; ++k) {
        const double w2 = 2.0 * ws.weights[static_cast<std::size_t>(k)];
        const cfloat* buf = ws.adjoint[static_cast<std::size_t>(k)].data();
        ops.real_weighted_accum(buf + b, w2, acc + b, e - b);
      }
    }, /*serial_threshold=*/1024);
  }

  reshape_like(grad_out, n, pixel_nm(), mask_b);
  const double inv_d = 1.0 / static_cast<double>(doses.size());
  for (std::size_t i = 0; i < npx; ++i)
    grad_out.data[i] = static_cast<float>(acc[i] * inv_d);

  // Robustness tier: simulate the numeric faults (denormal blow-ups, FFT
  // overflow) that ILILT reports on hard patterns. The ILT watchdog must
  // catch this and terminate Diverged instead of corrupting the descent.
  if (GANOPC_FAILPOINT("litho.gradient_nan"))
    grad_out.data[0] = std::numeric_limits<float>::quiet_NaN();
}

geom::Grid LithoSim::gradient(const geom::Grid& mask_b, const geom::Grid& target,
                              float dose) const {
  geom::Grid grad;
  const float doses[1] = {dose};
  gradient_into(mask_b, target, doses, grad, thread_workspace());
  return grad;
}

LithoSim::PvBand LithoSim::pv_band(const geom::Grid& mask, float dose_delta) const {
  GANOPC_OBS_SPAN("litho.pv_band");
  GANOPC_CHECK(dose_delta > 0.0f && dose_delta < 1.0f);
  const geom::Grid aerial_image = aerial(mask);
  PvBand band;
  band.outer = print(aerial_image, 1.0f + dose_delta);
  band.inner = print(aerial_image, 1.0f - dose_delta);

  // A +/-2% dose error moves contours by only a few nanometers — well below
  // one simulation pixel — so the band area is measured on a band-limited
  // super-sampled intensity field (~2nm effective pixels). The aerial image
  // carries at most twice the pupil bandwidth, far below grid Nyquist, so
  // Fourier zero-padding reconstructs the continuous field exactly.
  std::size_t factor = 1;
  while (pixel_nm() / static_cast<std::int32_t>(factor) > 2) factor *= 2;
  const auto n = static_cast<std::size_t>(grid_size());
  const std::vector<float> fine =
      fft::fourier_upsample_2d(aerial_image.data, n, n, factor);
  const float lo = threshold_ / (1.0f + dose_delta);
  const float hi = threshold_ / (1.0f - dose_delta);
  std::int64_t diff_px = 0;
  for (const float v : fine) diff_px += (v >= lo) != (v >= hi);
  const double fine_pixel = static_cast<double>(pixel_nm()) / static_cast<double>(factor);
  band.area_nm2 =
      static_cast<std::int64_t>(std::llround(diff_px * fine_pixel * fine_pixel));
  return band;
}

double LithoSim::l2_error(const geom::Grid& mask, const geom::Grid& target) const {
  check_geometry(target);
  const geom::Grid z = simulate(mask);
  double err = 0.0;
  for (std::size_t i = 0; i < z.data.size(); ++i) {
    const double d = static_cast<double>(z.data[i]) - target.data[i];
    err += d * d;
  }
  return err;
}

}  // namespace ganopc::litho
