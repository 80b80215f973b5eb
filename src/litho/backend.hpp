// Pluggable litho backends: kernel factories behind one SOCS interface.
//
// Every hot surface of the simulator — aerial_into, simulate_batch, the
// Eq. (14) adjoint gradient, pv_band — consumes a SocsKernels set and nothing
// else, so "swap the imaging model" reduces to "swap the kernel factory".
// A LithoBackend builds the SocsKernels for a target grid; LithoSim and the
// engine layer never know which physics produced them:
//
//   AbbeBackend  — one coherent kernel per sampled source point (the
//                  reference; N_h = OpticsConfig::num_kernels transforms per
//                  image).
//   TccBackend   — builds the Hopkins TCC operator *from the same Abbe
//                  source sampling*, eigendecomposes it, and keeps the top-k
//                  kernels. Because the generating measure is identical, the
//                  truncated SOCS converges to the Abbe image as k grows and
//                  `1 - captured_energy` bounds the relative aerial L2 error
//                  — the contract the `equivalence` test tier pins. Fewer
//                  kernels at matched accuracy is the serving speedup
//                  (k transforms instead of N_h per image).
//
// `parse_litho_backend` understands the CLI spelling:
//   "abbe"      — the reference path (default)
//   "tcc"       — auto-truncated TCC: smallest k whose captured energy meets
//                 the floor (default 0.99)
//   "tcc:<k>"   — exactly k kernels, the user's explicit speed/accuracy
//                 override: the energy floor is waived, but captured_energy
//                 stays recorded on the kernel set and the differential bound
//                 in the equivalence tier scales with it
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "litho/kernels.hpp"
#include "litho/optics.hpp"

namespace ganopc::litho {

/// Parsed `--litho-backend` selection. `tcc_kernels <= 0` means "auto": keep
/// the smallest k whose captured energy reaches `min_captured_energy`.
struct LithoBackendSpec {
  enum class Kind { Abbe, Tcc };
  Kind kind = Kind::Abbe;
  int tcc_kernels = 0;
  double min_captured_energy = 0.99;
};

/// Parse "abbe" | "tcc" | "tcc:<k>" (throws a typed kInvalidInput Status on
/// anything else, including k < 1).
LithoBackendSpec parse_litho_backend(const std::string& text);

/// Stable display name: "abbe", "tcc", or "tcc:<k>".
std::string litho_backend_name(const LithoBackendSpec& spec);

/// A kernel factory. Stateless and cheap to hold; `build` does the work.
class LithoBackend {
 public:
  virtual ~LithoBackend() = default;
  /// Build the SOCS kernel set for a grid_size x grid_size window at
  /// pixel_nm. Throws a typed Status on invalid optics/geometry or (TCC)
  /// when the captured-energy floor cannot be met.
  virtual SocsKernels build(const OpticsConfig& optics, std::int32_t grid_size,
                            std::int32_t pixel_nm) const = 0;
};

/// The current source-point SOCS path — the reference imaging model.
class AbbeBackend final : public LithoBackend {
 public:
  SocsKernels build(const OpticsConfig& optics, std::int32_t grid_size,
                    std::int32_t pixel_nm) const override;
};

/// Top-k TCC eigen-kernels of the Abbe-sampled source operator.
class TccBackend final : public LithoBackend {
 public:
  /// `num_kernels <= 0` selects the smallest k meeting the energy floor.
  explicit TccBackend(int num_kernels = 0, double min_captured_energy = 0.99);

  SocsKernels build(const OpticsConfig& optics, std::int32_t grid_size,
                    std::int32_t pixel_nm) const override;

 private:
  int num_kernels_;
  double min_captured_energy_;
};

/// Factory from a parsed spec.
std::unique_ptr<LithoBackend> make_litho_backend(const LithoBackendSpec& spec);

}  // namespace ganopc::litho
