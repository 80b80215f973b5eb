// Property tests on the lithography model: invariances that must hold for
// ANY partially coherent imaging system, independent of kernel details.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/prng.hpp"
#include "geometry/bitmap_ops.hpp"
#include "litho/lithosim.hpp"

namespace ganopc::litho {
namespace {

LithoSim make_sim(int kernels = 8) {
  OpticsConfig optics;
  optics.num_kernels = kernels;
  return LithoSim(optics, ResistConfig{}, 64, 16);
}

geom::Grid random_mask(std::int32_t n, std::int32_t px, Prng& rng) {
  geom::Grid g(n, n, px);
  // Blocky random pattern (binary blobs, not white noise).
  for (std::int32_t r = 0; r < n; r += 8)
    for (std::int32_t c = 0; c < n; c += 8)
      if (rng.bernoulli(0.3)) {
        for (std::int32_t dr = 0; dr < 8 && r + dr < n; ++dr)
          for (std::int32_t dc = 0; dc < 8 && c + dc < n; ++dc)
            g.at(r + dr, c + dc) = 1.0f;
      }
  return g;
}

geom::Grid shift(const geom::Grid& g, std::int32_t dr, std::int32_t dc) {
  geom::Grid out = g;
  for (std::int32_t r = 0; r < g.rows; ++r)
    for (std::int32_t c = 0; c < g.cols; ++c)
      out.at((r + dr) % g.rows, (c + dc) % g.cols) = g.at(r, c);
  return out;
}

class LithoShift : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(LithoShift, AerialCommutesWithCircularShift) {
  const auto [dr, dc] = GetParam();
  const LithoSim sim = make_sim();
  Prng rng(42);
  const geom::Grid mask = random_mask(64, 16, rng);
  const geom::Grid a1 = shift(sim.aerial(mask), dr, dc);
  const geom::Grid a2 = sim.aerial(shift(mask, dr, dc));
  for (std::size_t i = 0; i < a1.data.size(); ++i)
    EXPECT_NEAR(a1.data[i], a2.data[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Shifts, LithoShift,
                         ::testing::Values(std::make_pair(1, 0), std::make_pair(0, 1),
                                           std::make_pair(7, 13),
                                           std::make_pair(32, 32)));

TEST(LithoProperties, AerialNonNegative) {
  const LithoSim sim = make_sim();
  Prng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const geom::Grid aerial = sim.aerial(random_mask(64, 16, rng));
    for (float v : aerial.data) EXPECT_GE(v, 0.0f);
  }
}

TEST(LithoProperties, IntensityQuadraticInMaskScale) {
  // I(alpha * M) == alpha^2 * I(M): each coherent field scales linearly.
  const LithoSim sim = make_sim();
  Prng rng(2);
  const geom::Grid mask = random_mask(64, 16, rng);
  geom::Grid half = mask;
  for (auto& v : half.data) v *= 0.5f;
  const geom::Grid ia = sim.aerial(mask);
  const geom::Grid ih = sim.aerial(half);
  for (std::size_t i = 0; i < ia.data.size(); ++i)
    EXPECT_NEAR(ih.data[i], 0.25f * ia.data[i], 1e-4f);
}

TEST(LithoProperties, PvBandGrowsWithDoseDelta) {
  const LithoSim sim = make_sim();
  geom::Grid mask(64, 64, 16);
  for (std::int32_t r = 16; r < 48; ++r)
    for (std::int32_t c = 28; c < 36; ++c) mask.at(r, c) = 1.0f;
  const auto band2 = sim.pv_band(mask, 0.02f).area_nm2;
  const auto band5 = sim.pv_band(mask, 0.05f).area_nm2;
  const auto band10 = sim.pv_band(mask, 0.10f).area_nm2;
  EXPECT_LE(band2, band5);
  EXPECT_LE(band5, band10);
  EXPECT_GT(band10, 0);
}

TEST(LithoProperties, MirrorSymmetricMaskPrintsMirrorSymmetric) {
  // At focus the pupil is real and symmetric, so each source point acts as
  // its own +/- pair even though the 24 sampled points have no negated
  // partners, and a mask symmetric under 180-degree rotation images to a
  // symmetric intensity. Any source passes this; it cannot see the defocus
  // bias of an unpaired source.
  const LithoSim sim = make_sim(24);
  const std::int32_t n = 64;
  geom::Grid mask(n, n, 16);
  for (std::int32_t r = 20; r < 44; ++r)
    for (std::int32_t c = 28; c < 36; ++c) mask.at(r, c) = 1.0f;
  // Make it exactly symmetric under (r, c) -> (n-1-r, n-1-c)... the block
  // above already is (rows 20..43 and cols 28..35 about center 31.5).
  const geom::Grid aerial = sim.aerial(mask);
  for (std::int32_t r = 0; r < n; ++r)
    for (std::int32_t c = 0; c < n; ++c) {
      const float v1 = aerial.at(r, c);
      const float v2 = aerial.at(n - 1 - r, n - 1 - c);
      EXPECT_NEAR(v1, v2, 0.02f) << r << "," << c;
    }
}

TEST(LithoProperties, RotatedAsymmetricMaskImagesToRotatedImageAtFocus) {
  // At focus every kernel of the paper's 24-point source acts as its own
  // +/- pair (see above), so imaging the 180-degree rotation (r, c) ->
  // ((n-r) mod n, (n-c) mod n) of an L-shaped mask, which has no such
  // symmetry of its own, must give the rotated image.
  OpticsConfig optics;
  ASSERT_EQ(optics.num_kernels, 24);
  const LithoSim sim(optics, ResistConfig{}, 128, 16);
  const std::int32_t n = 128;
  geom::Grid mask(n, n, 16), rotated(n, n, 16);
  for (std::int32_t r = 30; r < 90; ++r)
    for (std::int32_t c = 40; c < 52; ++c) mask.at(r, c) = 1.0f;
  for (std::int32_t r = 78; r < 90; ++r)
    for (std::int32_t c = 52; c < 96; ++c) mask.at(r, c) = 1.0f;
  for (std::int32_t r = 0; r < n; ++r)
    for (std::int32_t c = 0; c < n; ++c) rotated.at((n - r) % n, (n - c) % n) = mask.at(r, c);
  const geom::Grid aerial = sim.aerial(mask);
  const geom::Grid aerial_rotated = sim.aerial(rotated);
  float peak = 0.0f, worst = 0.0f;
  for (std::int32_t r = 0; r < n; ++r)
    for (std::int32_t c = 0; c < n; ++c) {
      peak = std::max(peak, aerial.at(r, c));
      worst = std::max(worst,
                       std::abs(aerial_rotated.at((n - r) % n, (n - c) % n) - aerial.at(r, c)));
    }
  EXPECT_GT(peak, 0.5f);
  EXPECT_LE(worst, 1e-6f);
}

TEST(LithoProperties, MoreKernelsRefineIntensity) {
  // Doubling the Abbe sampling must change the aerial image by less than
  // the preceding refinement step (Cauchy-style convergence).
  OpticsConfig o8, o16, o32;
  o8.num_kernels = 8;
  o16.num_kernels = 16;
  o32.num_kernels = 32;
  const LithoSim s8(o8, ResistConfig{}, 64, 16);
  const LithoSim s16(o16, ResistConfig{}, 64, 16);
  const LithoSim s32(o32, ResistConfig{}, 64, 16);
  Prng rng(3);
  const geom::Grid mask = random_mask(64, 16, rng);
  const geom::Grid a8 = s8.aerial(mask);
  const geom::Grid a16 = s16.aerial(mask);
  const geom::Grid a32 = s32.aerial(mask);
  double d8_16 = 0, d16_32 = 0;
  for (std::size_t i = 0; i < a8.data.size(); ++i) {
    d8_16 += std::pow(static_cast<double>(a8.data[i]) - a16.data[i], 2);
    d16_32 += std::pow(static_cast<double>(a16.data[i]) - a32.data[i], 2);
  }
  EXPECT_LT(d16_32, d8_16);
}

TEST(LithoProperties, GradientIsDeterministic) {
  const LithoSim sim = make_sim();
  Prng rng(4);
  const geom::Grid mask = random_mask(64, 16, rng);
  geom::Grid target = mask;
  const geom::Grid g1 = sim.gradient(mask, target);
  const geom::Grid g2 = sim.gradient(mask, target);
  EXPECT_EQ(g1.data, g2.data);
}

}  // namespace
}  // namespace ganopc::litho
