// Divergence guard: an injected non-finite gradient must trigger rollback +
// learning-rate backoff and let the run complete; a persistent fault must
// exhaust the bounded retries and throw (ISSUE acceptance criterion).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "trainer_test_util.hpp"

namespace ganopc::core {
namespace {

using testutil::Rig;

class DivergenceGuardTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::clear(); }
};

void expect_all_finite(const std::vector<float>& v) {
  for (float x : v) EXPECT_TRUE(std::isfinite(x));
}

TEST_F(DivergenceGuardTest, TransientPretrainFaultRollsBackAndCompletes) {
  Rig rig(testutil::make_tiny_config());
  failpoint::arm("trainer.pretrain_grad", /*skip=*/1, /*count=*/1);  // poison iter 1
  const TrainStats stats = rig.trainer.pretrain(4);
  EXPECT_EQ(stats.divergence_rollbacks, 1);
  EXPECT_EQ(stats.litho_history.size(), 4u);
  expect_all_finite(stats.litho_history);
  expect_all_finite(stats.l2_history);
  // The trained weights stayed finite through the rollback.
  for (const auto& p : rig.generator.parameters())
    for (std::int64_t i = 0; i < p.value->numel(); ++i)
      ASSERT_TRUE(std::isfinite((*p.value)[i]));
}

TEST_F(DivergenceGuardTest, PersistentPretrainFaultExhaustsRetriesAndThrows) {
  Rig rig(testutil::make_tiny_config());
  failpoint::arm("trainer.pretrain_grad", 0, /*count=*/-1);  // every attempt fails
  EXPECT_THROW(rig.trainer.pretrain(4), Error);
  EXPECT_EQ(failpoint::fire_count("trainer.pretrain_grad"), kMaxDivergenceRetries + 1);
}

TEST_F(DivergenceGuardTest, TransientTrainFaultRollsBackAndCompletes) {
  Rig rig(testutil::make_tiny_config());
  failpoint::arm("trainer.train_grad", /*skip=*/1, /*count=*/1);
  const TrainStats stats = rig.trainer.train(4);
  EXPECT_EQ(stats.divergence_rollbacks, 1);
  EXPECT_EQ(stats.l2_history.size(), 4u);
  expect_all_finite(stats.l2_history);
  expect_all_finite(stats.g_adv_history);
  expect_all_finite(stats.d_loss_history);
}

TEST_F(DivergenceGuardTest, PersistentTrainFaultExhaustsRetriesAndThrows) {
  Rig rig(testutil::make_tiny_config());
  failpoint::arm("trainer.train_grad", 0, -1);
  EXPECT_THROW(rig.trainer.train(4), Error);
}

TEST_F(DivergenceGuardTest, RollbackCountSurvivesCheckpointResume) {
  const auto ckpt =
      (std::filesystem::temp_directory_path() / "ganopc_guard_resume.ckpt").string();
  const auto cfg = testutil::make_tiny_config();
  {
    Rig rig(cfg);
    failpoint::arm("trainer.pretrain_grad", 1, 1);
    TrainRunOptions opts;
    opts.checkpoint_path = ckpt;
    const TrainStats stats = rig.trainer.pretrain(3, opts);
    EXPECT_EQ(stats.divergence_rollbacks, 1);
    failpoint::clear();
  }
  Rig resumed(cfg);
  resumed.trainer.resume(ckpt);
  const TrainStats out = resumed.trainer.pretrain(5);
  // The rollback from before the "crash" is still accounted for.
  EXPECT_EQ(out.divergence_rollbacks, 1);
  EXPECT_EQ(out.litho_history.size(), 5u);
  std::remove(ckpt.c_str());
}

TEST_F(DivergenceGuardTest, RetriedStepBacksOffLearningRate) {
  // Two identically-seeded runs, one with an injected transient fault: the
  // faulted run must diverge from the clean one *after* the rollback
  // iteration because its learning rate was halved (lr_scale persists).
  const auto cfg = testutil::make_tiny_config();
  Rig clean(cfg);
  const TrainStats ref = clean.trainer.pretrain(4);

  Rig faulted(cfg);
  failpoint::arm("trainer.pretrain_grad", 1, 1);
  const TrainStats out = faulted.trainer.pretrain(4);

  ASSERT_EQ(out.litho_history.size(), ref.litho_history.size());
  // Iterations before the fault match exactly...
  EXPECT_EQ(out.litho_history[0], ref.litho_history[0]);
  // ...and the backed-off learning rate changes the subsequent trajectory.
  bool diverged = false;
  for (std::size_t i = 2; i < out.litho_history.size(); ++i)
    diverged |= out.litho_history[i] != ref.litho_history[i];
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace ganopc::core
