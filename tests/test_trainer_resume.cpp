// Crash-safe training: kill-and-resume must reproduce the uninterrupted run
// bit-for-bit — weights, batch-norm buffers, Adam moments, Prng stream and
// loss history all restored exactly (ISSUE acceptance criterion).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "nn/serialize.hpp"
#include "trainer_test_util.hpp"

namespace ganopc::core {
namespace {

using testutil::Rig;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::vector<float>> snapshot(const std::vector<nn::Param>& params) {
  std::vector<std::vector<float>> out;
  for (const auto& p : params)
    out.emplace_back(p.value->data(), p.value->data() + p.value->numel());
  return out;
}

void expect_bitwise_equal(const std::vector<nn::Param>& a,
                          const std::vector<std::vector<float>>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(static_cast<std::size_t>(a[i].value->numel()), b[i].size()) << what;
    for (std::int64_t j = 0; j < a[i].value->numel(); ++j)
      ASSERT_EQ((*a[i].value)[j], b[i][static_cast<std::size_t>(j)])
          << what << " param " << a[i].name << " element " << j;
  }
}

/// Runs `fn`, which must throw ganopc::Error whose text contains `text`.
void expect_error_containing(const std::function<void()>& fn, const std::string& text) {
  try {
    fn();
    ADD_FAILURE() << "no exception; expected one containing: " << text;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(text), std::string::npos) << e.what();
  }
}

/// Runs `phase` (pretrain or train) for `iterations` on `trainer`.
TrainStats run(GanOpcTrainer& trainer, TrainPhase phase, int iterations,
               const TrainRunOptions& options = {}) {
  return phase == TrainPhase::Pretrain ? trainer.pretrain(iterations, options)
                                       : trainer.train(iterations, options);
}

class TrainerResumeTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::clear(); }
};

/// Cases that run once per phase: GetParam() is Pretrain or Adversarial.
class TrainerPhaseTest : public TrainerResumeTest,
                         public ::testing::WithParamInterface<TrainPhase> {};

TEST_F(TrainerResumeTest, PretrainResumeBitIdentical) {
  const auto cfg = testutil::make_tiny_config();
  const auto ckpt = temp_path("ganopc_resume_pre.ckpt");

  Rig full(cfg);
  const TrainStats ref = full.trainer.pretrain(6);
  const auto ref_params = snapshot(full.generator.parameters());
  const auto ref_buffers = snapshot(full.generator.buffers());

  // "Crash" after 3 iterations: the final checkpoint carries the state.
  {
    Rig partial(cfg);
    TrainRunOptions opts;
    opts.checkpoint_path = ckpt;
    partial.trainer.pretrain(3, opts);
  }

  // A fresh process resumes and finishes the remaining 3 iterations.
  Rig resumed(cfg);
  const ResumeInfo info = resumed.trainer.resume(ckpt);
  EXPECT_EQ(info.phase, TrainPhase::Pretrain);
  EXPECT_EQ(info.next_iteration, 3);
  const TrainStats out = resumed.trainer.pretrain(6);

  ASSERT_EQ(out.litho_history.size(), ref.litho_history.size());
  for (std::size_t i = 0; i < ref.litho_history.size(); ++i)
    EXPECT_EQ(out.litho_history[i], ref.litho_history[i]) << "iteration " << i;
  ASSERT_EQ(out.l2_history.size(), ref.l2_history.size());
  for (std::size_t i = 0; i < ref.l2_history.size(); ++i)
    EXPECT_EQ(out.l2_history[i], ref.l2_history[i]) << "iteration " << i;
  expect_bitwise_equal(resumed.generator.parameters(), ref_params, "generator");
  expect_bitwise_equal(resumed.generator.buffers(), ref_buffers, "batch-norm buffers");
  std::remove(ckpt.c_str());
}

TEST_F(TrainerResumeTest, AdversarialResumeBitIdentical) {
  const auto cfg = testutil::make_tiny_config();
  const auto ckpt = temp_path("ganopc_resume_adv.ckpt");

  Rig full(cfg);
  const TrainStats ref = full.trainer.train(8);
  const auto ref_gen = snapshot(full.generator.parameters());
  const auto ref_disc = snapshot(full.discriminator.parameters());
  const auto ref_disc_buf = snapshot(full.discriminator.buffers());

  {
    Rig partial(cfg);
    TrainRunOptions opts;
    opts.checkpoint_path = ckpt;
    partial.trainer.train(4, opts);
  }

  Rig resumed(cfg);
  const ResumeInfo info = resumed.trainer.resume(ckpt);
  EXPECT_EQ(info.phase, TrainPhase::Adversarial);
  EXPECT_EQ(info.next_iteration, 4);
  const TrainStats out = resumed.trainer.train(8);

  ASSERT_EQ(out.l2_history.size(), ref.l2_history.size());
  for (std::size_t i = 0; i < ref.l2_history.size(); ++i) {
    EXPECT_EQ(out.l2_history[i], ref.l2_history[i]) << "iteration " << i;
    EXPECT_EQ(out.g_adv_history[i], ref.g_adv_history[i]) << "iteration " << i;
    EXPECT_EQ(out.d_loss_history[i], ref.d_loss_history[i]) << "iteration " << i;
  }
  expect_bitwise_equal(resumed.generator.parameters(), ref_gen, "generator");
  expect_bitwise_equal(resumed.discriminator.parameters(), ref_disc, "discriminator");
  expect_bitwise_equal(resumed.discriminator.buffers(), ref_disc_buf,
                       "discriminator buffers");
  std::remove(ckpt.c_str());
}

TEST_F(TrainerResumeTest, ResumeBitIdenticalAcrossThreadPoolSizes) {
  const auto cfg = testutil::make_tiny_config();
  const auto ckpt = temp_path("ganopc_resume_threads.ckpt");

  ThreadPool::reset(1);
  Rig full(cfg);
  const TrainStats ref = full.trainer.pretrain(4);
  const auto ref_params = snapshot(full.generator.parameters());

  {
    Rig partial(cfg);
    TrainRunOptions opts;
    opts.checkpoint_path = ckpt;
    partial.trainer.pretrain(2, opts);
  }

  // Resume under a different pool size: results must not depend on it.
  ThreadPool::reset(4);
  Rig resumed(cfg);
  resumed.trainer.resume(ckpt);
  const TrainStats out = resumed.trainer.pretrain(4);

  ASSERT_EQ(out.litho_history.size(), ref.litho_history.size());
  for (std::size_t i = 0; i < ref.litho_history.size(); ++i)
    EXPECT_EQ(out.litho_history[i], ref.litho_history[i]) << "iteration " << i;
  expect_bitwise_equal(resumed.generator.parameters(), ref_params, "generator");
  ThreadPool::reset(ThreadPool::default_thread_count());
  std::remove(ckpt.c_str());
}

TEST_F(TrainerResumeTest, CrashDuringFinalSaveLeavesPeriodicCheckpointResumable) {
  const auto cfg = testutil::make_tiny_config();
  const auto ckpt = temp_path("ganopc_resume_crash.ckpt");

  {
    Rig partial(cfg);
    TrainRunOptions opts;
    opts.checkpoint_path = ckpt;
    opts.checkpoint_every = 2;
    // First (periodic, it=2) save succeeds; the final save "crashes".
    failpoint::arm("checkpoint.save", /*skip=*/1, /*count=*/1);
    EXPECT_THROW(partial.trainer.pretrain(3, opts), Error);
    failpoint::clear();
  }

  // The periodic checkpoint (mid-pretrain, iteration 2/3) is intact.
  Rig resumed(cfg);
  const ResumeInfo info = resumed.trainer.resume(ckpt);
  EXPECT_EQ(info.phase, TrainPhase::Pretrain);
  EXPECT_EQ(info.next_iteration, 2);
  EXPECT_EQ(info.total_iterations, 3);

  // A mid-pretrain checkpoint must not silently feed train(), and the
  // rejected call leaves the resumed state in place.
  expect_error_containing(
      [&] { resumed.trainer.train(5); },
      "resumed checkpoint is mid-pretrain (iteration 2/3); run pretrain() first");
  // Finishing the pretrain from it works.
  const TrainStats out = resumed.trainer.pretrain(3);
  EXPECT_EQ(out.litho_history.size(), 3u);
  std::remove(ckpt.c_str());
}

TEST_P(TrainerPhaseTest, StopFlagFlushesResumableCheckpoint) {
  const TrainPhase phase = GetParam();
  const auto cfg = testutil::make_tiny_config();
  const auto ckpt = temp_path("ganopc_resume_stop.ckpt");

  Rig rig(cfg);
  std::atomic<bool> stop{true};  // request stop before the first iteration
  TrainRunOptions opts;
  opts.checkpoint_path = ckpt;
  opts.stop = &stop;
  const TrainStats stats = run(rig.trainer, phase, 5, opts);
  EXPECT_TRUE(stats.interrupted);
  EXPECT_TRUE(stats.l2_history.empty());

  Rig resumed(cfg);
  const ResumeInfo info = resumed.trainer.resume(ckpt);
  EXPECT_EQ(info.phase, phase);
  EXPECT_EQ(info.next_iteration, 0);
  EXPECT_EQ(info.total_iterations, 5);
  const TrainStats out = run(resumed.trainer, phase, 5);
  EXPECT_EQ(out.l2_history.size(), 5u);
  EXPECT_FALSE(out.interrupted);
  std::remove(ckpt.c_str());
}

TEST_P(TrainerPhaseTest, SamePhaseCheckpointBeyondRequestedThrows) {
  const TrainPhase phase = GetParam();
  const auto cfg = testutil::make_tiny_config();
  const auto ckpt = temp_path("ganopc_resume_beyond.ckpt");
  {
    Rig rig(cfg);
    TrainRunOptions opts;
    opts.checkpoint_path = ckpt;
    run(rig.trainer, phase, 4, opts);
  }
  Rig resumed(cfg);
  resumed.trainer.resume(ckpt);
  expect_error_containing(
      [&] { run(resumed.trainer, phase, 3); },
      std::string("resumed ") +
          (phase == TrainPhase::Pretrain ? "pretrain" : "adversarial") +
          " checkpoint is at iteration 4, beyond the requested 3");
  std::remove(ckpt.c_str());
}

INSTANTIATE_TEST_SUITE_P(BothPhases, TrainerPhaseTest,
                         ::testing::Values(TrainPhase::Pretrain, TrainPhase::Adversarial),
                         [](const ::testing::TestParamInfo<TrainPhase>& info) {
                           return info.param == TrainPhase::Pretrain ? "Pretrain"
                                                                     : "Adversarial";
                         });

TEST_F(TrainerResumeTest, CompletedPretrainCheckpointStartsTrainFresh) {
  const auto cfg = testutil::make_tiny_config();
  const auto ckpt = temp_path("ganopc_resume_donepre.ckpt");

  Rig full(cfg);
  full.trainer.pretrain(3);
  const TrainStats ref = full.trainer.train(4);
  const auto ref_gen = snapshot(full.generator.parameters());

  {
    Rig partial(cfg);
    TrainRunOptions opts;
    opts.checkpoint_path = ckpt;
    partial.trainer.pretrain(3, opts);
  }

  Rig resumed(cfg);
  resumed.trainer.resume(ckpt);
  const TrainStats out = resumed.trainer.train(4);
  // The adversarial history starts empty: no pretrain curve carries over.
  EXPECT_TRUE(out.litho_history.empty());
  ASSERT_EQ(out.l2_history.size(), ref.l2_history.size());
  for (std::size_t i = 0; i < ref.l2_history.size(); ++i)
    EXPECT_EQ(out.l2_history[i], ref.l2_history[i]) << "iteration " << i;
  expect_bitwise_equal(resumed.generator.parameters(), ref_gen, "generator");
  std::remove(ckpt.c_str());
}

TEST_F(TrainerResumeTest, ResumeRejectsMismatchedConfig) {
  const auto cfg = testutil::make_tiny_config();
  const auto ckpt = temp_path("ganopc_resume_cfgmismatch.ckpt");
  {
    Rig rig(cfg);
    TrainRunOptions opts;
    opts.checkpoint_path = ckpt;
    rig.trainer.pretrain(2, opts);
  }
  GanOpcConfig other = cfg;
  other.seed = cfg.seed + 1;
  Rig rig(other);
  EXPECT_THROW(rig.trainer.resume(ckpt), Error);
  std::remove(ckpt.c_str());
}

TEST_F(TrainerResumeTest, AdversarialCheckpointRejectsPretrain) {
  const auto cfg = testutil::make_tiny_config();
  const auto ckpt = temp_path("ganopc_resume_phase.ckpt");
  {
    Rig rig(cfg);
    TrainRunOptions opts;
    opts.checkpoint_path = ckpt;
    rig.trainer.train(3, opts);
  }
  Rig rig(cfg);
  rig.trainer.resume(ckpt);
  expect_error_containing([&] { rig.trainer.pretrain(3); },
                          "resumed checkpoint is in the adversarial phase; call train()");
  std::remove(ckpt.c_str());
}

TEST_F(TrainerResumeTest, WeightsOnlyFileRejectedByResume) {
  const auto cfg = testutil::make_tiny_config();
  const auto path = temp_path("ganopc_weights_only.bin");
  Rig rig(cfg);
  nn::save_parameters(rig.generator.net(), path);
  EXPECT_THROW(rig.trainer.resume(path), Error);
  std::remove(path.c_str());
}

TEST_F(TrainerResumeTest, GeneratorLoadableFromTrainerCheckpoint) {
  // `ganopc optimize --generator ckpt` accepts a full trainer checkpoint.
  const auto cfg = testutil::make_tiny_config();
  const auto ckpt = temp_path("ganopc_resume_genload.ckpt");
  Rig rig(cfg);
  TrainRunOptions opts;
  opts.checkpoint_path = ckpt;
  rig.trainer.pretrain(2, opts);
  const auto ref_params = snapshot(rig.generator.parameters());

  Rig other(cfg);
  nn::load_parameters(other.generator.net(), ckpt);
  expect_bitwise_equal(other.generator.parameters(), ref_params, "generator");
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace ganopc::core
