// The litho model: a parsed `--litho-backend` spec that builds its own SOCS
// kernels.
//
// Every hot surface of the simulator — aerial_into, simulate_batch, the
// Eq. (14) adjoint gradient, pv_band — consumes a SocsKernels set and nothing
// else, so "swap the imaging model" reduces to "build a different kernel
// set". LithoBackendSpec::build is the one place that does, and LithoSim and
// the engine layer never know which physics produced the set:
//
//   "abbe"      — one coherent kernel per sampled source point (the
//                 reference, and the default; N_h = OpticsConfig::num_kernels
//                 transforms per image).
//   "tcc"       — the Hopkins TCC operator built *from the same Abbe source
//                 sampling*, eigendecomposed, truncated to the smallest k
//                 whose captured energy reaches a fixed floor of 0.99
//                 (`kAutoEnergyFloor` in backend.cpp). Because the generating
//                 measure is identical, the truncated SOCS converges to the
//                 Abbe image as k grows and `1 - captured_energy` bounds the
//                 relative aerial L2 error — the contract the `equivalence`
//                 test tier pins. Fewer kernels at matched accuracy is the
//                 serving speedup (k transforms instead of N_h per image).
//   "tcc:<k>"   — exactly k kernels, the user's explicit speed/accuracy
//                 override: no floor applies, but captured_energy stays
//                 recorded on the kernel set and the differential bound in
//                 the equivalence tier scales with it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "litho/kernels.hpp"
#include "litho/optics.hpp"

namespace ganopc::litho {

/// Parsed `--litho-backend` selection. `tcc_kernels <= 0` means "auto".
struct LithoBackendSpec {
  enum class Kind { Abbe, Tcc };
  Kind kind = Kind::Abbe;
  int tcc_kernels = 0;

  /// Build the SOCS kernel set for a grid_size x grid_size window at
  /// pixel_nm. Throws a typed Status on invalid optics/geometry or, in auto
  /// TCC mode, when the captured-energy floor cannot be met.
  SocsKernels build(const OpticsConfig& optics, std::int32_t grid_size,
                    std::int32_t pixel_nm) const;
};

/// Parse "abbe" | "tcc" | "tcc:<k>" ("" is "abbe"). Throws a typed
/// kInvalidInput Status on anything else, including a k outside [1, INT_MAX].
LithoBackendSpec parse_litho_backend(const std::string& text);

/// Stable display name: "abbe", "tcc", or "tcc:<k>".
std::string litho_backend_name(const LithoBackendSpec& spec);

/// Returns a copy of `spec`, so `make_litho_backend(spec)->build(...)` still
/// compiles. It exists only because the benchmark harness times
/// `litho.build_s` through that call (bench/e2e/main.cpp), and the harness
/// changes only with the benchmark. New code calls `spec.build(...)`.
std::optional<LithoBackendSpec> make_litho_backend(const LithoBackendSpec& spec);

}  // namespace ganopc::litho
