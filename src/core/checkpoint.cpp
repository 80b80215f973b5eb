// GOPCNET2 trainer checkpoint: the complete training state needed for
// bit-identical resume (DESIGN.md §8). Sections:
//   meta         — format version, phase, iteration counters, lr scale and a
//                  config fingerprint (grids, channels, batch, seed, dataset
//                  size) that must match the resuming process exactly
//   gen_params / gen_buffers / disc_params / disc_buffers
//                — weights + batch-norm running statistics
//   adam_g / adam_d / adam_pre
//                — per-optimizer step count and first/second moments
//   prng         — xoshiro256** state + the Box-Muller spare variate
//   history      — phase loss curves, accumulated seconds, rollback count
#include <cstdint>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/sectioned_file.hpp"
#include "core/trainer.hpp"
#include "nn/serialize.hpp"
#include "obs/trace.hpp"

namespace ganopc::core {

namespace {

constexpr std::uint32_t kTrainerCheckpointVersion = 1;
// Moment-tensor counts and history lengths are bounded like the tensor blobs
// in nn/serialize.cpp: generous for any real run, small enough that a
// corrupt count cannot trigger a huge allocation.
constexpr std::uint32_t kMaxMoments = 1u << 20;
constexpr std::uint64_t kMaxHistory = 1u << 28;

void write_adam(ByteWriter& w, const nn::Adam& opt) {
  w.pod(opt.step_count());
  w.pod(static_cast<std::uint32_t>(opt.first_moments().size()));
  for (const auto& m : opt.first_moments()) nn::write_tensor(w, m);
  for (const auto& v : opt.second_moments()) nn::write_tensor(w, v);
}

void read_adam(ByteReader& r, nn::Adam& opt, const std::string& what) {
  const auto t = r.pod<std::int64_t>();
  const auto n = r.pod<std::uint32_t>();
  GANOPC_CHECK_MSG(n <= kMaxMoments,
                   "corrupt " << what << ": implausible moment count " << n);
  std::vector<nn::Tensor> m, v;
  m.reserve(n);
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.push_back(nn::read_tensor(r, what));
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(nn::read_tensor(r, what));
  opt.restore_state(t, std::move(m), std::move(v));
}

void write_history(ByteWriter& w, const std::vector<float>& h) {
  w.pod(static_cast<std::uint64_t>(h.size()));
  if (!h.empty()) w.bytes(h.data(), h.size() * sizeof(float));
}

std::vector<float> read_history(ByteReader& r, const std::string& what) {
  const auto n = r.pod<std::uint64_t>();
  GANOPC_CHECK_MSG(n <= kMaxHistory,
                   "corrupt " << what << ": implausible history length " << n);
  std::vector<float> h(static_cast<std::size_t>(n));
  if (n) {
    GANOPC_CHECK_MSG(r.remaining() >= h.size() * sizeof(float),
                     "truncated " << what << ": history cut short");
    r.bytes(h.data(), h.size() * sizeof(float));
  }
  return h;
}

}  // namespace

/// Friend of GanOpcTrainer: reads/writes its private training state.
struct TrainerCheckpointCodec {
  static void save(const GanOpcTrainer& tr, const std::string& path) {
    GANOPC_FAILPOINT_THROW("checkpoint.save");
    SectionedFileWriter file(nn::kCheckpointMagicV2);

    ByteWriter& meta = file.section("meta");
    meta.pod(kTrainerCheckpointVersion);
    meta.pod(static_cast<std::uint32_t>(tr.phase_));
    meta.pod(static_cast<std::int64_t>(tr.next_iteration_));
    meta.pod(static_cast<std::int64_t>(tr.total_iterations_));
    meta.pod(tr.lr_scale_);
    meta.pod(tr.config_.gan_grid);
    meta.pod(tr.config_.litho_grid);
    meta.pod(tr.config_.base_channels);
    meta.pod(static_cast<std::int32_t>(tr.config_.batch_size));
    meta.pod(tr.config_.seed);
    meta.pod(static_cast<std::uint64_t>(tr.dataset_.size()));

    nn::write_named_tensors(file.section("gen_params"), tr.generator_.parameters());
    nn::write_named_tensors(file.section("gen_buffers"), tr.generator_.buffers());
    nn::write_named_tensors(file.section("disc_params"), tr.discriminator_.parameters());
    nn::write_named_tensors(file.section("disc_buffers"), tr.discriminator_.buffers());

    write_adam(file.section("adam_g"), *tr.g_opt_);
    write_adam(file.section("adam_d"), *tr.d_opt_);
    write_adam(file.section("adam_pre"), *tr.pre_opt_);

    ByteWriter& prng = file.section("prng");
    const Prng::State rng = tr.rng_.state();
    for (const auto s : rng.s) prng.pod(s);
    prng.pod(rng.cached_normal);
    prng.pod(static_cast<std::uint8_t>(rng.has_cached_normal ? 1 : 0));

    ByteWriter& hist = file.section("history");
    write_history(hist, tr.phase_stats_.l2_history);
    write_history(hist, tr.phase_stats_.g_adv_history);
    write_history(hist, tr.phase_stats_.d_loss_history);
    write_history(hist, tr.phase_stats_.litho_history);
    hist.pod(tr.phase_stats_.seconds);
    hist.pod(static_cast<std::int32_t>(tr.phase_stats_.divergence_rollbacks));

    file.write(path);
  }

  static ResumeInfo load(GanOpcTrainer& tr, const std::string& path) {
    const SectionedFileReader file(path, nn::kCheckpointMagicV2);
    GANOPC_CHECK_MSG(file.has("meta"),
                     path << " is a weights-only checkpoint, not a trainer "
                             "checkpoint; pass it to --generator instead");
    for (const char* name :
         {"gen_params", "gen_buffers", "disc_params", "disc_buffers", "adam_g",
          "adam_d", "adam_pre", "prng", "history"})
      GANOPC_CHECK_MSG(file.has(name),
                       "corrupt trainer checkpoint " << path << ": missing section '"
                                                     << name << "'");

    ByteReader meta = file.open("meta");
    const auto version = meta.pod<std::uint32_t>();
    GANOPC_CHECK_MSG(version == kTrainerCheckpointVersion,
                     path << ": unsupported trainer checkpoint version " << version);
    const auto phase = meta.pod<std::uint32_t>();
    GANOPC_CHECK_MSG(phase == static_cast<std::uint32_t>(TrainPhase::Pretrain) ||
                         phase == static_cast<std::uint32_t>(TrainPhase::Adversarial),
                     "corrupt trainer checkpoint " << path << ": bad phase " << phase);
    const auto next = meta.pod<std::int64_t>();
    const auto total = meta.pod<std::int64_t>();
    GANOPC_CHECK_MSG(next >= 0 && total >= 0 && next <= total,
                     "corrupt trainer checkpoint " << path << ": bad iteration counters "
                                                   << next << "/" << total);
    const auto lr_scale = meta.pod<float>();
    GANOPC_CHECK_MSG(lr_scale > 0.0f && lr_scale <= 1.0f,
                     "corrupt trainer checkpoint " << path << ": bad lr scale "
                                                   << lr_scale);
    const auto gan_grid = meta.pod<std::int32_t>();
    const auto litho_grid = meta.pod<std::int32_t>();
    const auto base_channels = meta.pod<std::int64_t>();
    const auto batch_size = meta.pod<std::int32_t>();
    const auto seed = meta.pod<std::uint64_t>();
    const auto dataset_size = meta.pod<std::uint64_t>();
    meta.expect_exhausted();
    GANOPC_CHECK_MSG(
        gan_grid == tr.config_.gan_grid && litho_grid == tr.config_.litho_grid &&
            base_channels == tr.config_.base_channels &&
            batch_size == tr.config_.batch_size && seed == tr.config_.seed &&
            dataset_size == tr.dataset_.size(),
        path << " was written for a different configuration (gan_grid=" << gan_grid
             << " litho_grid=" << litho_grid << " base_channels=" << base_channels
             << " batch_size=" << batch_size << " seed=" << seed
             << " dataset_size=" << dataset_size << ")");

    const auto read_tensors = [&](const char* sec, const std::vector<nn::Param>& ps) {
      ByteReader r = file.open(sec);
      nn::read_named_tensors(r, ps, path + " " + sec);
      r.expect_exhausted();
    };
    read_tensors("gen_params", tr.generator_.parameters());
    read_tensors("gen_buffers", tr.generator_.buffers());
    read_tensors("disc_params", tr.discriminator_.parameters());
    read_tensors("disc_buffers", tr.discriminator_.buffers());

    const auto read_opt = [&](const char* sec, nn::Adam& opt) {
      ByteReader r = file.open(sec);
      read_adam(r, opt, path + " " + sec);
      r.expect_exhausted();
    };
    read_opt("adam_g", *tr.g_opt_);
    read_opt("adam_d", *tr.d_opt_);
    read_opt("adam_pre", *tr.pre_opt_);

    {
      ByteReader r = file.open("prng");
      Prng::State rng{};
      for (auto& s : rng.s) s = r.pod<std::uint64_t>();
      rng.cached_normal = r.pod<double>();
      rng.has_cached_normal = r.pod<std::uint8_t>() != 0;
      r.expect_exhausted();
      tr.rng_.set_state(rng);  // throws on the all-zero (corrupt) state
    }

    TrainStats stats;
    {
      ByteReader r = file.open("history");
      const std::string what = path + " history";
      stats.l2_history = read_history(r, what);
      stats.g_adv_history = read_history(r, what);
      stats.d_loss_history = read_history(r, what);
      stats.litho_history = read_history(r, what);
      stats.seconds = r.pod<double>();
      stats.divergence_rollbacks = r.pod<std::int32_t>();
      r.expect_exhausted();
    }

    tr.phase_ = static_cast<TrainPhase>(phase);
    tr.next_iteration_ = static_cast<int>(next);
    tr.total_iterations_ = static_cast<int>(total);
    tr.lr_scale_ = lr_scale;
    tr.phase_stats_ = std::move(stats);
    tr.resume_pending_ = true;
    GANOPC_INFO("resumed " << path << ": "
                           << (tr.phase_ == TrainPhase::Pretrain ? "pretrain" : "train")
                           << " iteration " << tr.next_iteration_ << "/"
                           << tr.total_iterations_);
    return ResumeInfo{tr.phase_, tr.next_iteration_, tr.total_iterations_};
  }
};

void GanOpcTrainer::save_checkpoint(const std::string& path) const {
  GANOPC_OBS_SPAN("trainer.checkpoint");
  TrainerCheckpointCodec::save(*this, path);
}

ResumeInfo GanOpcTrainer::resume(const std::string& path) {
  return TrainerCheckpointCodec::load(*this, path);
}

}  // namespace ganopc::core
