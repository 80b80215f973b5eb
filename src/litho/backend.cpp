#include "litho/backend.hpp"

#include <cmath>

#include "common/status.hpp"
#include "litho/tcc.hpp"

namespace ganopc::litho {

LithoBackendSpec parse_litho_backend(const std::string& text) {
  LithoBackendSpec spec;
  if (text.empty() || text == "abbe") return spec;
  if (text == "tcc") {
    spec.kind = LithoBackendSpec::Kind::Tcc;
    return spec;
  }
  if (text.rfind("tcc:", 0) == 0) {
    const std::string k = text.substr(4);
    GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                       !k.empty() && k.find_first_not_of("0123456789") ==
                                         std::string::npos,
                       "--litho-backend: '" << text
                                            << "' needs a positive kernel count "
                                               "after the colon (tcc:<k>)");
    spec.kind = LithoBackendSpec::Kind::Tcc;
    spec.tcc_kernels = std::stoi(k);
    GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, spec.tcc_kernels >= 1,
                       "--litho-backend: kernel count must be >= 1");
    // An explicit k is the user overriding the accuracy/speed trade-off: the
    // energy floor is not enforced, but captured_energy is still recorded on
    // the kernel set and the equivalence bound scales with it.
    spec.min_captured_energy = 0.0;
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

SocsKernels AbbeBackend::build(const OpticsConfig& optics, std::int32_t grid_size,
                               std::int32_t pixel_nm) const {
  return SocsKernels(optics, grid_size, pixel_nm);
}

TccBackend::TccBackend(int num_kernels, double min_captured_energy)
    : num_kernels_(num_kernels), min_captured_energy_(min_captured_energy) {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     std::isfinite(min_captured_energy_) &&
                         min_captured_energy_ >= 0.0 &&
                         min_captured_energy_ <= 1.0,
                     "tcc backend: captured-energy floor must be in [0, 1]");
}

SocsKernels TccBackend::build(const OpticsConfig& optics, std::int32_t grid_size,
                              std::int32_t pixel_nm) const {
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
  const int rank = static_cast<int>(opts.source_points.size());
  const int solve_k =
      num_kernels_ <= 0 ? rank : std::min(num_kernels_, rank);
  TccKernelSet set =
      compute_tcc_kernels(optics, grid_size, pixel_nm, solve_k, opts);

  // Truncate: requested k, or the smallest k meeting the energy floor.
  double total = 0.0;
  for (const float w : set.weights) total += w;
  // set.captured_energy is (retained sum) / trace; recover the trace so the
  // energy of a *shorter* prefix can be computed exactly.
  const double trace =
      set.captured_energy > 0.0 ? total / set.captured_energy : 0.0;
  std::size_t keep = set.weights.size();
  if (num_kernels_ <= 0) {
    double prefix = 0.0;
    for (std::size_t k = 0; k < set.weights.size(); ++k) {
      prefix += set.weights[k];
      if (trace > 0.0 && prefix / trace >= min_captured_energy_) {
        keep = k + 1;
        break;
      }
    }
  }
  if (keep < set.weights.size()) {
    set.kernels_hat.resize(keep);
    double prefix = 0.0;
    set.weights.resize(keep);
    for (const float w : set.weights) prefix += w;
    set.captured_energy = trace > 0.0 ? prefix / trace : 0.0;
  }
  GANOPC_TYPED_CHECK(StatusCode::kLithoNumeric,
                     set.captured_energy >= min_captured_energy_,
                     "tcc backend: " << set.weights.size()
                                     << " kernels capture only "
                                     << set.captured_energy
                                     << " of the imaging operator energy "
                                        "(floor "
                                     << min_captured_energy_
                                     << "); raise k or lower the floor");
  return SocsKernels(optics, grid_size, pixel_nm, std::move(set));
}

std::unique_ptr<LithoBackend> make_litho_backend(const LithoBackendSpec& spec) {
  if (spec.kind == LithoBackendSpec::Kind::Abbe)
    return std::make_unique<AbbeBackend>();
  return std::make_unique<TccBackend>(spec.tcc_kernels,
                                      spec.min_captured_energy);
}

}  // namespace ganopc::litho
