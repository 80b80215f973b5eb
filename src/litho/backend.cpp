#include "litho/backend.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <utility>

#include "common/status.hpp"
#include "litho/tcc.hpp"

namespace ganopc::litho {

namespace {

/// Auto TCC mode keeps the smallest k whose captured energy reaches this.
constexpr double kAutoEnergyFloor = 0.99;

}  // namespace

LithoBackendSpec parse_litho_backend(const std::string& text) {
  LithoBackendSpec spec;
  if (text.empty() || text == "abbe") return spec;
  if (text == "tcc") {
    spec.kind = LithoBackendSpec::Kind::Tcc;
    return spec;
  }
  if (text.rfind("tcc:", 0) == 0) {
    const char* first = text.data() + 4;
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(first, last, spec.tcc_kernels);
    GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                       ec == std::errc{} && end == last && spec.tcc_kernels >= 1,
                       "--litho-backend: '" << text
                                            << "' needs a kernel count from 1 to "
                                            << INT_MAX << " after the colon (tcc:<k>)");
    spec.kind = LithoBackendSpec::Kind::Tcc;
    return spec;
  }
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, false,
                     "--litho-backend: unknown backend '"
                         << text << "' (abbe | tcc | tcc:<k>)");
  return spec;  // unreachable
}

std::string litho_backend_name(const LithoBackendSpec& spec) {
  if (spec.kind == LithoBackendSpec::Kind::Abbe) return "abbe";
  if (spec.tcc_kernels <= 0) return "tcc";
  return "tcc:" + std::to_string(spec.tcc_kernels);
}

SocsKernels LithoBackendSpec::build(const OpticsConfig& optics, std::int32_t grid_size,
                                    std::int32_t pixel_nm) const {
  if (kind == Kind::Abbe) return SocsKernels(optics, grid_size, pixel_nm);
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, optics.valid(),
                     "tcc backend: invalid optics configuration");
  // The TCC operator is generated by the *Abbe-sampled* source, not a dense
  // rediscretization: the full-rank eigenexpansion then reproduces the Abbe
  // reference image exactly, so truncation error — bounded by the discarded
  // trace 1 - captured_energy — is the only Abbe-vs-TCC difference.
  TccOptions opts;
  opts.source_points = sample_annular_source(optics, optics.num_kernels);
  // The operator has rank <= #source points; solving for the full rank costs
  // one eigensolve and lets auto mode pick the smallest admissible
  // truncation from it.
  const bool auto_k = tcc_kernels <= 0;
  const int rank = static_cast<int>(opts.source_points.size());
  const int solve_k = auto_k ? rank : std::min(tcc_kernels, rank);
  TccKernelSet set = compute_tcc_kernels(optics, grid_size, pixel_nm, solve_k, opts);
  if (!auto_k) return SocsKernels(optics, grid_size, pixel_nm, std::move(set));

  // Auto: truncate to the smallest k meeting the energy floor.
  double total = 0.0;
  for (const float w : set.weights) total += w;
  // set.captured_energy is (retained sum) / trace; recover the trace so the
  // energy of a *shorter* prefix can be computed exactly.
  const double trace =
      set.captured_energy > 0.0 ? total / set.captured_energy : 0.0;
  std::size_t keep = set.weights.size();
  double prefix = 0.0;
  for (std::size_t k = 0; k < set.weights.size(); ++k) {
    prefix += set.weights[k];
    if (trace > 0.0 && prefix / trace >= kAutoEnergyFloor) {
      keep = k + 1;
      break;
    }
  }
  if (keep < set.weights.size()) {
    set.kernels_hat.resize(keep);
    set.weights.resize(keep);
    prefix = 0.0;
    for (const float w : set.weights) prefix += w;
    set.captured_energy = trace > 0.0 ? prefix / trace : 0.0;
  }
  GANOPC_TYPED_CHECK(StatusCode::kLithoNumeric, set.captured_energy >= kAutoEnergyFloor,
                     "tcc backend: " << set.weights.size()
                                     << " kernels capture only "
                                     << set.captured_energy
                                     << " of the imaging operator energy (floor "
                                     << kAutoEnergyFloor << "); pass tcc:<k>");
  return SocsKernels(optics, grid_size, pixel_nm, std::move(set));
}

std::optional<LithoBackendSpec> make_litho_backend(const LithoBackendSpec& spec) {
  return spec;
}

}  // namespace ganopc::litho
