// The traced run's stage-by-stage replay of Engine::submit (README.md).
//
// Each clip is submitted twice back to back, with observability off and then
// on (their ratio is the tracing overhead), and the traced submission is then
// replayed as the public calls the engine makes, in its order: decode,
// rasterize, acceptance gate, downsample -> generator -> upsample, ILT with a
// warm workspace, PV band, and the response encode. Each call is one span;
// the clip's spans share its id. The replayed mask must be byte-identical to
// the submitted one. Clips that needed a retry or a fallback rung are counted
// but not replayed: their path is not the plain GAN+ILT chain.
#pragma once

#include <cstdint>
#include <string>

#include "engine/engine.hpp"
#include "harness.hpp"
#include "litho/workspace.hpp"

namespace e2e {

/// Seconds summed over clips. `untraced`/`traced` cover every clip; the
/// stages and `submit` only the replayed ones.
struct StageSums {
  double untraced = 0.0, traced = 0.0;
  double submit = 0.0;
  double decode = 0.0, rasterize = 0.0, gate = 0.0, resample = 0.0, infer = 0.0;
  double ilt = 0.0, pv_band = 0.0, encode = 0.0;
  double ilt_litho = 0.0;      ///< litho.gradient + litho.simulate inside ILT
  double gradient_call = 0.0;  ///< median single gradient_into per clip
  std::int64_t iterations = 0;
  std::uint64_t plan_cache_misses = 0;  ///< over the traced calls
};

/// The untraced submit of a clip.
struct ClipRun {
  ganopc::engine::BatchClipResult row;
  double untraced_s = 0.0;
  std::string pgm;  ///< its mask as the PGM a serve response carries
};

class Replayer {
 public:
  Replayer(const ganopc::engine::Engine& engine, SpanLog& spans);

  /// Runs one clip as above; any mismatch lands in `report`.
  ClipRun run(const ClipFile& clip, std::uint64_t clip_id, Report& report);

  const StageSums& sums() const { return sums_; }
  int replayed() const { return replayed_; }
  int skipped() const { return skipped_; }

 private:
  const ganopc::engine::Engine& engine_;
  SpanLog& spans_;
  ganopc::litho::LithoWorkspace workspace_;
  StageSums sums_;
  int replayed_ = 0;
  int skipped_ = 0;
};

}  // namespace e2e
