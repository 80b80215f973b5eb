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
#include "fft/plan.hpp"
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

// SOCS passes (Eq. 2 forward, Eq. 14 adjoint) on the split-complex batch
// kernel fft::fft_lanes8 (DESIGN.md §7). A kernel spectrum H_k_hat is zero
// outside its R support rows and C support columns, so each pass is
//   rows:    R (or all n) row transforms, batched 8 rows per kernel call;
//   columns: n column transforms, run per 8-column group over a column slab
//            owned by one thread, every kernel in ascending order, each
//            group's result folded into that group's accumulator at once.
// Slabs only partition pixels and each pixel sums dose-major, then k
// ascending, in double, so every thread count produces the same bytes.
// Values that the band limits skip are exact zeros, which can change no
// nonzero value and never reach the accumulators as a sign.

using fft::kBlock;
using fft::kLanes;
using fft::lane_groups;
using fft::lane_scratch;
using fft::SplitGrid;

// Per-thread batch buffers (fft::lane_scratch slots).
constexpr std::size_t kBatchSlot = 0;    ///< one batch: n split-complex blocks
constexpr std::size_t kOperandSlot = 1;  ///< product operands at the support columns
constexpr std::size_t kSupportSlot = 2;  ///< adjoint row-pass output at the support columns

/// Inverse row transforms of the band-limited products a .* H over rows
/// `rows` and columns `cols` of an n x n spectrum, 8 rows per batch; every
/// other bin enters as an exact zero. `load_a(batch, a)` writes operand a of
/// the rows `batch` (up to 8 of `rows`) at the listed columns as blocks;
/// `kernel` is H's operand blocks over the same rows and columns
/// (SocsKernels::operand). Row i lands in row i of `out`.
template <typename LoadA>
void support_rows_inverse(std::span<const std::size_t> rows, std::span<const std::size_t> cols,
                          const float* kernel, LoadA load_a, const fft::FftPlan& plan,
                          const fft::LaneOps& ops, const SplitGrid& out) {
  const std::size_t n = plan.n, nc = cols.size();
  float* blocks = lane_scratch(kBlock * n, kBatchSlot);
  float* a = lane_scratch(kBlock * nc, kOperandSlot);
  for (std::size_t i0 = 0; i0 < rows.size(); i0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, rows.size() - i0);
    const auto batch = rows.subspan(i0, lanes);
    load_a(batch, a);
    ops.cmul(a, kernel + i0 / kLanes * nc * kBlock, a, nc);
    fft::spread_blocks(a, kBlock, cols, plan, blocks);
    ops.fft(blocks, plan, /*inverse=*/true);
    fft::store_rows(blocks, n, lanes, out, i0);
  }
}

/// Kernel k's compact rows in the workspace: its band-limited rows, stored
/// row by row as 8-column groups.
SplitGrid compact_rows(LithoWorkspace& ws, int k, std::size_t n) {
  const std::size_t groups = lane_groups(n);
  return {ws.compact.data() + ws.compact_offset[static_cast<std::size_t>(k)], groups * kBlock,
          kBlock};
}

/// Kernel k's stored field A_k: group by group, n rows of 8-column blocks.
SplitGrid field_grid(LithoWorkspace& ws, int k, std::size_t n) {
  const std::size_t group_floats = n * kBlock;
  return {ws.fields.data() + static_cast<std::size_t>(k) * lane_groups(n) * group_floats, kBlock,
          group_floats};
}

/// Column pass of one 8-column group for kernel k: its compact rows
/// (support rows `rows`) at their points, every other row zero, then
/// inverse-transformed in place.
void column_inverse(const SplitGrid& compact, std::span<const std::size_t> rows, std::size_t g,
                    const fft::FftPlan& plan, const fft::LaneOps& ops, float* blocks) {
  fft::spread_blocks(compact.block(0, g), compact.row_step, rows, plan, blocks);
  ops.fft(blocks, plan, /*inverse=*/true);
}

/// Row-major pixel (r, c) of 8-column group g = c / 8 in the block-ordered
/// accumulator layout: group g holds n rows of 8 pixels.
std::size_t block_index(std::size_t n, std::size_t r, std::size_t c) {
  return (c / kLanes * n + r) * kLanes + c % kLanes;
}

// The one SOCS forward implementation (Eq. 2): mask FFT, per-kernel coherent
// fields A_k = IFFT(H_k_hat .* mask_hat), then the intensity
// I = sum_k w_k |A_k|^2 reduced per pixel in ascending-k order. With
// `store_fields` the fields are kept in ws.fields for the gradient's adjoint;
// aerial-only callers (aerial images, the gate, the PV band, threshold
// calibration) skip the store. Shared by every caller, so tests cover one
// implementation.
void socs_forward(const SocsKernels& kernels, const geom::Grid& mask,
                  geom::Grid& aerial_image, LithoWorkspace& ws, bool store_fields) {
  const std::int32_t n = kernels.grid_size();
  const auto un = static_cast<std::size_t>(n);
  const std::size_t npx = un * un, groups = lane_groups(un);
  const int num_k = kernels.count();
  const auto nk = static_cast<std::size_t>(num_k);
  // Kernel k's compact rows serve its forward and its adjoint support rows.
  const auto compact_len = [&](int k) {
    return std::max(kernels.support(k).rows.size(), kernels.support_flipped(k).rows.size()) *
           groups * kBlock;
  };
  std::size_t compact_floats = 0;
  for (int k = 0; k < num_k; ++k) compact_floats += compact_len(k);
  if (ws.ensure_forward(num_k, npx, compact_floats, groups * un * kLanes,
                        store_fields ? nk * groups * un * kBlock : 0) &&
      obs::metrics_enabled())
    obs::counter("litho.workspace.grows").inc();
  for (int k = 0, off = 0; k < num_k; off += static_cast<int>(compact_len(k)), ++k) {
    ws.compact_offset[static_cast<std::size_t>(k)] = static_cast<std::size_t>(off);
    ws.weights[static_cast<std::size_t>(k)] = kernels.weight(k);
  }

  // Masks are real, so the forward transform runs the half-cost real-input
  // path; the full Hermitian spectrum comes out in the usual layout.
  fft::rfft_2d(mask.data.data(), ws.mask_hat.data(), un, un);

  const fft::FftPlan& plan = fft::plan_for(un);
  const fft::LaneOps& ops = fft::lane_ops();
  // Rows: per kernel, the support rows of H_k_hat .* mask_hat.
  std::size_t row_transforms = 0;
  for (int k = 0; k < num_k; ++k) row_transforms += kernels.support(k).rows.size();
  fft::count_transforms(row_transforms + nk * un);
  // Kernels and column groups are coarse items: parallel_for splits them
  // evenly over the pool (parallel_for_chunks' 16-item quantum would not).
  parallel_for(0, nk, [&](std::size_t k) {
    const auto& sup = kernels.support(static_cast<int>(k));
    const cfloat* mask_hat = ws.mask_hat.data();
    support_rows_inverse(
        sup.rows, sup.cols, kernels.operand(static_cast<int>(k)).data(),
        [&](std::span<const std::size_t> batch, float* a) {
          fft::load_rows(mask_hat, un, batch, sup.cols, a);
        },
        plan, ops, compact_rows(ws, static_cast<int>(k), un));
  }, /*serial_threshold=*/2);

  // Columns: each thread owns a slab of 8-column groups.
  reshape_like(aerial_image, n, kernels.pixel_nm(), mask);
  parallel_for(0, groups, [&](std::size_t g) {
    float* scratch = lane_scratch(kBlock * un, kBatchSlot);
    double* acc = ws.acc.data() + g * un * kLanes;
    std::fill(acc, acc + un * kLanes, 0.0);
    for (int k = 0; k < num_k; ++k) {
      float* blocks = store_fields ? field_grid(ws, k, un).block(0, g) : scratch;
      column_inverse(compact_rows(ws, k, un), kernels.support(k).rows, g, plan, ops, blocks);
      ops.norm_weighted_accum(blocks, ws.weights[static_cast<std::size_t>(k)], acc, un);
    }
    float* out = aerial_image.data.data();
    const std::size_t lanes = std::min(kLanes, un - g * kLanes);
    for (std::size_t r = 0; r < un; ++r)
      for (std::size_t j = 0; j < lanes; ++j)
        out[r * un + g * kLanes + j] = static_cast<float>(acc[r * kLanes + j]);
  }, /*serial_threshold=*/2);
}

// Threshold calibration: image a wide vertical stripe and take the intensity
// at its geometric edge, so large features print at drawn size. Runs through
// the same aerial-only socs_forward path as every aerial image, so it stores
// no fields, in the calling thread's workspace, which later calls reuse.
float calibrate_threshold(const SocsKernels& kernels) {
  const std::int32_t n = kernels.grid_size();
  geom::Grid stripe(n, n, kernels.pixel_nm());
  const std::int32_t c0 = n / 4, c1 = 3 * n / 4;
  for (std::int32_t r = 0; r < n; ++r)
    for (std::int32_t c = c0; c < c1; ++c) stripe.at(r, c) = 1.0f;

  geom::Grid intensity;
  socs_forward(kernels, stripe, intensity, thread_workspace(), /*store_fields=*/false);
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
  socs_forward(kernels_, mask, aerial_image, ws, /*store_fields=*/false);
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
  socs_forward(kernels_, mask_b, result.aerial_image, ws, /*store_fields=*/false);
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
  socs_forward(kernels_, mask_b, ws.aerial_scratch, ws, /*store_fields=*/true);
  if (ws.ensure_adjoint(ws.acc.size()) && obs::metrics_enabled())
    obs::counter("litho.workspace.grows").inc();

  const std::size_t groups = lane_groups(un);
  const fft::FftPlan& plan = fft::plan_for(un);
  const fft::LaneOps& ops = fft::lane_ops();
  double* acc = ws.acc.data();
  std::fill(acc, acc + groups * un * kLanes, 0.0);
  std::size_t transforms_per_dose = 0;
  for (int k = 0; k < num_k; ++k) {
    const auto& sup = kernels_.support_flipped(k);
    transforms_per_dose += un + sup.cols.size() + sup.rows.size() + un;
  }
  const float alpha = resist_.sigmoid_alpha;
  // Dose corners accumulate serially (fixed order); within a dose, the
  // per-kernel row passes are independent and the per-pixel sum runs in
  // ascending-k order — deterministic at any thread count.
  for (const float dose : doses) {
    // X = dE/dI = 2 (Z - Z_t) .* alpha * dose * Z (1 - Z)   (real-valued);
    // the dose factor comes from Z = sigmoid(alpha (dose*I - I_th)).
    parallel_for_chunks(0, npx, [&](std::size_t b, std::size_t e) {
      const float* intensity = ws.aerial_scratch.data.data();
      float* x = ws.x.data();
      for (std::size_t i = b; i < e; ++i) {
        const float zi =
            1.0f / (1.0f + std::exp(-alpha * (intensity[i] * dose - threshold_)));
        x[block_index(un, i / un, i % un)] =
            2.0f * (zi - target.data[i]) * alpha * dose * zi * (1.0f - zi);
      }
    }, /*serial_threshold=*/1024);

    // dE/dM = sum_k w_k * 2 Re( (X .* conj(A_k)) correlated with h_k )
    //       = sum_k w_k * 2 Re( IFFT( FFT(X .* conj(A_k)) .* H_k_hat(-f) ) ).
    // This is the frequency-domain form of Eq. (14)'s two convolution terms
    // (conv with H and with H*), fused via the 2 Re(.) identity. Only the
    // flipped kernel's support survives the product, so the forward row
    // transforms keep just its C columns, the column transforms run on those
    // columns only, and the inverse needs just its R rows.
    fft::count_transforms(transforms_per_dose);
    parallel_for(0, static_cast<std::size_t>(num_k), [&](std::size_t k) {
      const auto& sup = kernels_.support_flipped(static_cast<int>(k));
      const std::size_t nc = sup.cols.size(), batches = lane_groups(nc);
      float* blocks = lane_scratch(kBlock * un, kBatchSlot);
      // The support columns as column batches; unused lanes of the last
      // batch transform zeros.
      float* support = lane_scratch(kBlock * un * batches, kSupportSlot);
      if (nc % kLanes != 0)
        std::fill_n(support + (batches - 1) * un * kBlock, un * kBlock, 0.0f);
      const SplitGrid field = field_grid(ws, static_cast<int>(k), un);
      // Forward row transforms of X .* conj(A_k), 8 rows per batch: the
      // products come straight from the field blocks, one 8x8 tile per
      // column group, loaded with the rows as lanes.
      alignas(32) float tile[kBlock * kLanes] = {};
      for (std::size_t r0 = 0; r0 < un; r0 += kLanes) {
        const std::size_t lanes = std::min(kLanes, un - r0);
        if (lanes < kLanes) std::fill(blocks, blocks + kBlock * un, 0.0f);
        for (std::size_t g = 0; g < groups; ++g) {
          ops.cmul_conj_real(ws.x.data() + (g * un + r0) * kLanes, field.block(r0, g), tile,
                             lanes);
          fft::load_row_tile(tile, lanes, g, plan, blocks);
        }
        ops.fft(blocks, plan, /*inverse=*/false);
        fft::store_columns(blocks, sup.cols, lanes, r0, plan, support);
      }
      // Forward column transforms of the support columns, in place.
      for (std::size_t cb = 0; cb < batches; ++cb)
        ops.fft(support + cb * un * kBlock, plan, /*inverse=*/false);
      // Product with H_k_hat(-f) on the support rows, inverse rows.
      const SplitGrid columns{support, kBlock, un * kBlock};
      support_rows_inverse(
          sup.rows, sup.cols, kernels_.operand_flipped(static_cast<int>(k)).data(),
          [&](std::span<const std::size_t> batch, float* a) {
            fft::load_rows(columns, batch, nc, a);
          },
          plan, ops, compact_rows(ws, static_cast<int>(k), un));
    }, /*serial_threshold=*/2);

    // Inverse column transforms per slab, each folded into 2 w_k Re(.).
    parallel_for(0, groups, [&](std::size_t g) {
      float* blocks = lane_scratch(kBlock * un, kBatchSlot);
      for (int k = 0; k < num_k; ++k) {
        const double w2 = 2.0 * ws.weights[static_cast<std::size_t>(k)];
        column_inverse(compact_rows(ws, k, un), kernels_.support_flipped(k).rows, g, plan, ops,
                       blocks);
        ops.real_weighted_accum(blocks, w2, acc + g * un * kLanes, un);
      }
    }, /*serial_threshold=*/2);
  }

  reshape_like(grad_out, n, pixel_nm(), mask_b);
  const double inv_d = 1.0 / static_cast<double>(doses.size());
  for (std::size_t r = 0; r < un; ++r)
    for (std::size_t c = 0; c < un; ++c)
      grad_out.data[r * un + c] = static_cast<float>(acc[block_index(un, r, c)] * inv_d);

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
  return {static_cast<std::int64_t>(std::llround(diff_px * fine_pixel * fine_pixel))};
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
