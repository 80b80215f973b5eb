// Ablation: Abbe source-point kernels vs Hopkins TCC-SVD kernels (Eq. 1).
//
// Production simulators (like the contest's lithosim_v4) ship SVD kernels
// because the TCC eigenbasis is the optimal coherent decomposition: for the
// same kernel budget it captures more of the operator than direct source
// sampling. This bench sweeps the kernel count for both factories and
// reports aerial-image RMS error against a converged TCC-32 reference plus
// the one-time kernel build cost.
#include <cmath>
#include <cstdio>

#include "common/csv.hpp"
#include "common/timer.hpp"
#include "geometry/raster.hpp"
#include "litho/lithosim.hpp"
#include "litho/tcc.hpp"

int main() {
  using namespace ganopc;
  std::printf("== Ablation: Abbe sampling vs TCC-SVD kernels ==\n\n");

  geom::Layout clip(geom::Rect{0, 0, 2048, 2048});
  clip.add({800, 400, 880, 1600});
  clip.add({1020, 400, 1100, 1200});
  clip.add({1240, 700, 1320, 1600});
  const geom::Grid mask = geom::rasterize(clip, 16, /*threshold=*/true);

  // `tcc` adopts the top-k TCC eigen-kernels; otherwise one Abbe kernel per
  // sampled source point.
  auto make_sim = [&](int kernels, bool tcc, double& build_s) {
    litho::OpticsConfig optics;
    optics.num_kernels = kernels;
    WallTimer t;
    litho::LithoSim sim(
        tcc ? litho::SocsKernels(optics, 128, 16,
                                 litho::compute_tcc_kernels(optics, 128, 16, kernels))
            : litho::SocsKernels(optics, 128, 16),
        litho::ResistConfig{});
    build_s = t.seconds();
    return sim;
  };

  double ref_build = 0.0;
  const litho::LithoSim reference = make_sim(32, /*tcc=*/true, ref_build);
  const geom::Grid ref_aerial = reference.aerial(mask);
  auto rms_vs_ref = [&](const litho::LithoSim& sim) {
    const geom::Grid aerial = sim.aerial(mask);
    double sq = 0.0;
    for (std::size_t i = 0; i < aerial.data.size(); ++i)
      sq += std::pow(static_cast<double>(aerial.data[i]) - ref_aerial.data[i], 2);
    return std::sqrt(sq / static_cast<double>(aerial.data.size()));
  };

  CsvWriter csv("ablation_kernel_method.csv",
                {"kernels", "abbe_rms", "abbe_build_s", "tcc_rms", "tcc_build_s"});
  std::printf("%-8s | %12s %10s | %12s %10s\n", "kernels", "Abbe RMS", "build(s)",
              "TCC RMS", "build(s)");
  for (const int k : {4, 8, 12, 16, 24}) {
    double abbe_build = 0.0, tcc_build = 0.0;
    const litho::LithoSim abbe = make_sim(k, /*tcc=*/false, abbe_build);
    const litho::LithoSim tcc = make_sim(k, /*tcc=*/true, tcc_build);
    const double abbe_rms = rms_vs_ref(abbe);
    const double tcc_rms = rms_vs_ref(tcc);
    std::printf("%-8d | %12.6f %10.2f | %12.6f %10.2f\n", k, abbe_rms, abbe_build,
                tcc_rms, tcc_build);
    csv.row_numeric({static_cast<double>(k), abbe_rms, abbe_build, tcc_rms, tcc_build});
  }
  std::printf("\nTCC kernels buy accuracy per kernel at a one-time eigensolve cost\n"
              "(amortized over every later simulation). wrote ablation_kernel_method.csv\n");
  return 0;
}
