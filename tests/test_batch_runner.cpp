// Engine-driven BatchRunner: per-clip isolation, graceful degradation, typed
// failure reporting and crash-safe journal resume (DESIGN.md §9, §15).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/prng.hpp"
#include "common/sectioned_file.hpp"
#include "common/status.hpp"
#include "core/config.hpp"
#include "core/generator.hpp"
#include "engine/batch_runner.hpp"
#include "engine/engine.hpp"
#include "gds/gds.hpp"
#include "geometry/layout.hpp"
#include "litho/backend.hpp"

namespace ganopc::engine {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

core::GanOpcConfig make_cfg() {
  core::GanOpcConfig cfg = core::make_config(core::ReproScale::Quick);
  cfg.litho_grid = 64;   // 32 nm pixels: seconds for a 10-clip batch
  cfg.gan_grid = 32;
  cfg.optics.num_kernels = 8;
  cfg.ilt.max_iterations = 30;
  cfg.ilt.check_every = 5;
  return cfg;
}

EngineOptions make_options(const core::GanOpcConfig& cfg,
                           SubmitPolicy policy = {},
                           core::Generator* generator = nullptr) {
  EngineOptions options;
  options.config = cfg;
  options.policy = policy;
  options.generator = generator;
  return options;
}

// An isolated vertical wire, shifted per index so clips are distinct.
geom::Layout wire_clip(std::int32_t clip_nm, std::int32_t shift = 0) {
  geom::Layout l(geom::Rect{0, 0, clip_nm, clip_nm});
  const std::int32_t mid = clip_nm / 2 + shift;
  l.add({mid - 60, mid - 500, mid + 60, mid + 500});
  return l;
}

std::vector<BatchClip> make_clips(int n, std::int32_t clip_nm) {
  std::vector<BatchClip> clips;
  for (int i = 0; i < n; ++i)
    clips.push_back({"clip" + std::to_string(i), "",
                     wire_clip(clip_nm, 64 * (i - n / 2))});
  return clips;
}

class BatchRunnerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    failpoint::clear();
    for (const auto& p : cleanup_) std::remove(p.c_str());
  }

  std::string scratch(const std::string& name) {
    const std::string path = temp_path(name);
    std::remove(path.c_str());
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

TEST_F(BatchRunnerTest, CleanBatchSucceedsOnEveryClip) {
  const Engine eng(make_options(make_cfg()));
  const BatchRunner runner(eng, BatchConfig{});
  const BatchSummary s = runner.run(make_clips(3, eng.config().clip_nm));
  EXPECT_EQ(s.succeeded, 3);
  EXPECT_EQ(s.failed, 0);
  for (const auto& c : s.clips) {
    EXPECT_TRUE(c.ok()) << c.id << ": " << c.error;
    EXPECT_EQ(c.stage, BatchStage::Ilt);  // no generator attached
    EXPECT_TRUE(c.has_termination);
    EXPECT_EQ(c.retries, 0);
    EXPECT_EQ(c.fallbacks, 0);
    EXPECT_GE(c.l2_nm2, 0.0);  // the easy wire prints perfectly: L2 may be 0
    EXPECT_GT(c.pvb_nm2, 0);
  }
}

TEST_F(BatchRunnerTest, PoisonedClipIsIsolatedAndTyped) {
  // The DESIGN §9 acceptance scenario: inject a litho NaN into clip k of 10
  // and the other 9 must complete, with the manifest naming clip k and the
  // code.
  SubmitPolicy policy;
  policy.allow_fallback = false;  // isolate the failure, no rescue
  policy.max_retries = 1;
  const Engine eng(make_options(make_cfg(), policy));
  const BatchRunner runner(eng, BatchConfig{});

  const int k = 3;
  failpoint::arm("batch.poison_clip", /*skip=*/k, /*count=*/1);
  const BatchSummary s = runner.run(make_clips(10, eng.config().clip_nm));

  EXPECT_EQ(s.succeeded, 9);
  EXPECT_EQ(s.failed, 1);
  for (int i = 0; i < 10; ++i) {
    const BatchClipResult& c = s.clips[static_cast<std::size_t>(i)];
    if (i == k) {
      EXPECT_FALSE(c.ok());
      EXPECT_EQ(c.code, StatusCode::kLithoNumeric);
      EXPECT_EQ(c.stage, BatchStage::Failed);
      EXPECT_EQ(c.termination, ilt::TerminationReason::kDiverged);
      EXPECT_EQ(c.retries, 1);  // one perturbed restart was attempted
      EXPECT_NE(c.error.find(c.id), std::string::npos);
    } else {
      EXPECT_TRUE(c.ok()) << c.id << ": " << c.error;
    }
  }

  // The machine-readable manifest names the failed clip and its code.
  const std::string manifest = scratch("batch_poison_manifest.csv");
  BatchRunner::write_manifest(manifest, s);
  const std::string text = read_bytes(manifest);
  EXPECT_NE(text.find("clip3,<memory>,failed,LithoNumeric"), std::string::npos);
}

TEST_F(BatchRunnerTest, PoisonedClipDegradesToMbOpc) {
  // With fallback enabled the same numeric fault is rescued by the
  // gradient-free MB-OPC rung: the batch completes 10/10.
  SubmitPolicy policy;
  policy.max_retries = 1;
  // ILT drives this easy wire to L2 ~0, a bar the coarser gradient-free
  // MB-OPC rung cannot match; widen the gate so the chain can rescue.
  policy.l2_accept_factor = 20.0f;
  const Engine eng(make_options(make_cfg(), policy));
  const BatchRunner runner(eng, BatchConfig{});

  failpoint::arm("batch.poison_clip", /*skip=*/2, /*count=*/1);
  const BatchSummary s = runner.run(make_clips(5, eng.config().clip_nm));
  EXPECT_EQ(s.succeeded, 5);
  const BatchClipResult& poisoned = s.clips[2];
  EXPECT_TRUE(poisoned.ok()) << poisoned.error;
  EXPECT_EQ(poisoned.stage, BatchStage::MbOpc);
  EXPECT_EQ(poisoned.fallbacks, 1);
  EXPECT_EQ(poisoned.retries, 1);
  // Unpoisoned neighbours never left the first rung.
  EXPECT_EQ(s.clips[1].stage, BatchStage::Ilt);
  EXPECT_EQ(s.clips[3].stage, BatchStage::Ilt);
}

TEST_F(BatchRunnerTest, CorruptGdsFailsOnlyThatClip) {
  const Engine eng(make_options(make_cfg()));

  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    const std::string path = scratch("batch_gds_" + std::to_string(i) + ".gds");
    gds::write_gds(path, gds::layout_to_gds(
                             wire_clip(eng.config().clip_nm, 64 * i), "TOP"));
    paths.push_back(path);
  }
  {  // truncate the middle file: a typed InvalidInput, not a batch abort
    const std::string bytes = read_bytes(paths[1]);
    std::ofstream out(paths[1], std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  const BatchRunner runner(eng, BatchConfig{});
  const BatchSummary s = runner.run_files(paths);
  EXPECT_EQ(s.succeeded, 2);
  EXPECT_EQ(s.failed, 1);
  EXPECT_TRUE(s.clips[0].ok()) << s.clips[0].error;
  EXPECT_FALSE(s.clips[1].ok());
  EXPECT_EQ(s.clips[1].code, StatusCode::kInvalidInput);
  EXPECT_FALSE(s.clips[1].has_termination);  // failed before any ILT ran
  EXPECT_TRUE(s.clips[2].ok()) << s.clips[2].error;
}

TEST_F(BatchRunnerTest, ExhaustedDeadlineReportedAsDeadlineExceeded) {
  SubmitPolicy policy;
  policy.clip_deadline_s = 1e-6;  // expires during clip setup
  const Engine eng(make_options(make_cfg(), policy));
  const BatchRunner runner(eng, BatchConfig{});
  const BatchSummary s = runner.run(make_clips(1, eng.config().clip_nm));
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.clips[0].code, StatusCode::kDeadlineExceeded);
}

TEST_F(BatchRunnerTest, GeneratorAttachedStartsAtGanIltRung) {
  core::GanOpcConfig cfg = make_cfg();
  cfg.ilt.max_iterations = 60;  // headroom to refine the untrained init
  Prng rng(cfg.seed);
  core::Generator generator(cfg.gan_grid, cfg.base_channels, rng);
  const Engine eng(make_options(cfg, SubmitPolicy{}, &generator));
  const BatchRunner runner(eng, BatchConfig{});
  const BatchSummary s = runner.run(make_clips(1, cfg.clip_nm));
  ASSERT_TRUE(s.clips[0].ok()) << s.clips[0].error;
  if (s.clips[0].fallbacks == 0) {
    EXPECT_EQ(s.clips[0].stage, BatchStage::GanIlt);
  }
}

TEST_F(BatchRunnerTest, ResumeReplaysJournaledClips) {
  const Engine eng(make_options(make_cfg()));
  BatchConfig bcfg;
  bcfg.journal_path = scratch("batch_resume.journal");
  bcfg.deterministic_manifest = true;
  const auto clips = make_clips(4, eng.config().clip_nm);

  const BatchRunner runner(eng, bcfg);
  const BatchSummary first = runner.run(clips);
  ASSERT_EQ(first.succeeded, 4);
  const std::string journal_after_first = read_bytes(bcfg.journal_path);

  bcfg.resume = true;
  const BatchRunner resumer(eng, bcfg);
  const BatchSummary second = resumer.run(clips);
  EXPECT_EQ(second.resumed, 4);
  EXPECT_EQ(second.succeeded, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(second.clips[i].from_journal);
    EXPECT_EQ(second.clips[i].l2_px, first.clips[i].l2_px);
    EXPECT_EQ(second.clips[i].pvb_nm2, first.clips[i].pvb_nm2);
    EXPECT_EQ(second.clips[i].ilt_iterations, first.clips[i].ilt_iterations);
  }
  // The rewritten journal is bit-identical: replay is exact.
  EXPECT_EQ(read_bytes(bcfg.journal_path), journal_after_first);
}

TEST_F(BatchRunnerTest, PartialJournalRecomputesOnlyMissingClips) {
  // Simulate a crash between clips by dropping the last clip's section from
  // a complete journal, then resuming.
  const Engine eng(make_options(make_cfg()));
  BatchConfig bcfg;
  bcfg.journal_path = scratch("batch_partial.journal");
  bcfg.deterministic_manifest = true;
  const auto clips = make_clips(3, eng.config().clip_nm);

  const BatchRunner runner(eng, bcfg);
  const BatchSummary full = runner.run(clips);
  const std::string complete_journal = read_bytes(bcfg.journal_path);

  {  // rewrite the journal without the final clip's section
    const SectionedFileReader reader(bcfg.journal_path, "GOPCBAT1");
    SectionedFileWriter writer("GOPCBAT1");
    for (const std::string name : {"meta", "clip/clip0", "clip/clip1"}) {
      ByteReader src = reader.open(name);
      std::vector<char> payload(src.remaining());
      src.bytes(payload.data(), payload.size());
      writer.section(name).bytes(payload.data(), payload.size());
    }
    writer.write(bcfg.journal_path);
  }

  bcfg.resume = true;
  const BatchRunner resumer(eng, bcfg);
  const BatchSummary resumed = resumer.run(clips);
  EXPECT_EQ(resumed.resumed, 2);
  EXPECT_EQ(resumed.succeeded, 3);
  EXPECT_FALSE(resumed.clips[2].from_journal);
  EXPECT_EQ(resumed.clips[2].l2_px, full.clips[2].l2_px);
  // After the resumed run the journal matches the uninterrupted one exactly.
  EXPECT_EQ(read_bytes(bcfg.journal_path), complete_journal);
}

TEST_F(BatchRunnerTest, ResumeRejectsJournalFromDifferentBatch) {
  const Engine eng(make_options(make_cfg()));
  BatchConfig bcfg;
  bcfg.journal_path = scratch("batch_mismatch.journal");
  const auto clips = make_clips(2, eng.config().clip_nm);
  const BatchRunner runner(eng, bcfg);
  runner.run(clips);
  const std::string journal = read_bytes(bcfg.journal_path);
  bcfg.resume = true;

  const auto expect_rejected = [&](const Engine& engine, const BatchConfig& cfg,
                                   const std::vector<BatchClip>& batch,
                                   const char* what) {
    try {
      BatchRunner(engine, cfg).run(batch);
      ADD_FAILURE() << "journal accepted despite a changed " << what;
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::kInvalidInput) << what;
    }
    // A rejected resume never touches the journal.
    EXPECT_EQ(read_bytes(cfg.journal_path), journal) << what;
  };

  auto renamed = clips;
  renamed[1].id = "renamed";
  expect_rejected(eng, bcfg, renamed, "clip id");

  SubmitPolicy retries;
  retries.max_retries = eng.policy().max_retries + 1;
  const Engine retry_eng(make_options(make_cfg(), retries));
  expect_rejected(retry_eng, bcfg, clips, "max_retries");

  BatchConfig det = bcfg;
  det.deterministic_manifest = !bcfg.deterministic_manifest;
  expect_rejected(eng, det, clips, "deterministic_manifest");

  BatchConfig kills = bcfg;
  kills.quarantine_kills = bcfg.quarantine_kills + 1;
  expect_rejected(eng, kills, clips, "quarantine_kills");

  EngineOptions tcc = make_options(make_cfg());
  tcc.backend = litho::parse_litho_backend("tcc:4");
  const Engine tcc_eng(tcc);
  expect_rejected(tcc_eng, bcfg, clips, "litho backend");

  // The unchanged batch still resumes from the same journal.
  EXPECT_EQ(BatchRunner(eng, bcfg).run(clips).resumed, 2);

  // Generator identity is its weights, not just its presence: a journal
  // written with one generator does not replay under another.
  const core::GanOpcConfig cfg = make_cfg();
  Prng rng_a(1), rng_b(2);
  core::Generator gen_a(cfg.gan_grid, cfg.base_channels, rng_a);
  core::Generator gen_b(cfg.gan_grid, cfg.base_channels, rng_b);
  const Engine eng_a(make_options(cfg, SubmitPolicy{}, &gen_a));
  const Engine eng_b(make_options(cfg, SubmitPolicy{}, &gen_b));
  BatchConfig gen_cfg;
  gen_cfg.journal_path = scratch("batch_generator.journal");
  BatchRunner(eng_a, gen_cfg).run(clips);
  gen_cfg.resume = true;
  try {
    BatchRunner(eng_b, gen_cfg).run(clips);
    ADD_FAILURE() << "journal accepted despite different generator weights";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("written by a different batch"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(BatchRunner(eng_a, gen_cfg).run(clips).resumed, 2);
}

TEST_F(BatchRunnerTest, PoolJournalResumesInProcess) {
  // `workers` is execution policy, not batch identity: a journal written by
  // a supervised run replays in process with every row intact.
  const Engine eng(make_options(make_cfg()));
  const auto clips = make_clips(3, eng.config().clip_nm);
  BatchConfig bcfg;
  bcfg.journal_path = scratch("batch_pool.journal");
  bcfg.deterministic_manifest = true;
  bcfg.workers = 2;
  const BatchSummary pool = BatchRunner(eng, bcfg).run(clips);
  ASSERT_EQ(pool.succeeded, 3);

  bcfg.workers = 0;
  bcfg.resume = true;
  const BatchSummary replay = BatchRunner(eng, bcfg).run(clips);
  EXPECT_EQ(replay.resumed, 3);
  EXPECT_EQ(replay.succeeded, 3);
  const std::string m1 = scratch("batch_pool_1.csv");
  const std::string m2 = scratch("batch_pool_2.csv");
  BatchRunner::write_manifest(m1, pool);
  BatchRunner::write_manifest(m2, replay);
  EXPECT_EQ(read_bytes(m2), read_bytes(m1));
}

TEST_F(BatchRunnerTest, DrainBeforeFirstClipCancelsEveryRowInBothModes) {
  const Engine eng(make_options(make_cfg()));
  const auto clips = make_clips(3, eng.config().clip_nm);
  BatchConfig plain;
  plain.deterministic_manifest = true;
  const std::string reference = scratch("batch_drain_ref.csv");
  BatchRunner::write_manifest(reference, BatchRunner(eng, plain).run(clips));

  std::vector<BatchSummary> drained;
  for (const int workers : {0, 2}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const std::atomic<bool> stop{true};
    BatchConfig bcfg = plain;
    bcfg.workers = workers;
    bcfg.journal_path =
        scratch("batch_drain_w" + std::to_string(workers) + ".journal");
    bcfg.stop = &stop;
    const BatchSummary s = BatchRunner(eng, bcfg).run(clips);
    EXPECT_TRUE(s.drained);
    EXPECT_EQ(s.cancelled, 3);
    EXPECT_EQ(s.failed, 3);
    for (const auto& c : s.clips) {
      EXPECT_EQ(c.code, StatusCode::kCancelled) << c.id;
      EXPECT_EQ(c.stage, BatchStage::Failed) << c.id;
    }
    // Cancelled rows are never journaled: the journal holds only the meta.
    const SectionedFileReader journal(bcfg.journal_path, "GOPCBAT1");
    EXPECT_TRUE(journal.has("meta"));
    for (const auto& clip : clips) EXPECT_FALSE(journal.has("clip/" + clip.id));
    drained.push_back(s);

    // A resume with the flag cleared recomputes exactly the drained clips.
    bcfg.stop = nullptr;
    bcfg.resume = true;
    const BatchSummary resumed = BatchRunner(eng, bcfg).run(clips);
    EXPECT_EQ(resumed.resumed, 0);
    EXPECT_FALSE(resumed.drained);
    const std::string manifest =
        scratch("batch_drain_w" + std::to_string(workers) + ".csv");
    BatchRunner::write_manifest(manifest, resumed);
    EXPECT_EQ(read_bytes(manifest), read_bytes(reference));
  }

  // Both modes drain to the same rows, error text included.
  ASSERT_EQ(drained.size(), 2u);
  for (std::size_t i = 0; i < clips.size(); ++i) {
    const BatchClipResult& a = drained[0].clips[i];
    const BatchClipResult& b = drained[1].clips[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.error, b.error);
  }
  const std::string m0 = scratch("batch_drain_0.csv");
  const std::string m2 = scratch("batch_drain_2.csv");
  BatchRunner::write_manifest(m0, drained[0]);
  BatchRunner::write_manifest(m2, drained[1]);
  EXPECT_EQ(read_bytes(m0), read_bytes(m2));
}

TEST_F(BatchRunnerTest, DeterministicManifestIsBitIdenticalAcrossRuns) {
  const Engine eng(make_options(make_cfg()));
  BatchConfig bcfg;
  bcfg.deterministic_manifest = true;
  const BatchRunner runner(eng, bcfg);
  const auto clips = make_clips(3, eng.config().clip_nm);

  const std::string m1 = scratch("batch_det_1.csv");
  const std::string m2 = scratch("batch_det_2.csv");
  BatchRunner::write_manifest(m1, runner.run(clips));
  BatchRunner::write_manifest(m2, runner.run(clips));
  const std::string a = read_bytes(m1);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, read_bytes(m2));
}

TEST_F(BatchRunnerTest, RejectsInvalidBatchInputs) {
  const Engine eng(make_options(make_cfg()));
  const BatchRunner runner(eng, BatchConfig{});
  EXPECT_THROW(runner.run({}), StatusError);

  auto dup = make_clips(2, eng.config().clip_nm);
  dup[1].id = dup[0].id;
  EXPECT_THROW(runner.run(dup), StatusError);

  BatchConfig bad;
  bad.resume = true;  // resume with no journal path
  EXPECT_THROW(BatchRunner(eng, bad), StatusError);

  // Per-clip policy moved into the session: a bad policy fails the Engine
  // ctor, before any batch machinery exists.
  SubmitPolicy neg;
  neg.max_retries = -1;
  EXPECT_THROW(Engine(make_options(make_cfg(), neg)), StatusError);
}

TEST_F(BatchRunnerTest, WrongClipWindowIsTypedInvalidInput) {
  const Engine eng(make_options(make_cfg()));
  const BatchRunner runner(eng, BatchConfig{});
  std::vector<BatchClip> clips;
  clips.push_back({"bad_window", "", wire_clip(eng.config().clip_nm / 2)});
  const BatchSummary s = runner.run(clips);
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.clips[0].code, StatusCode::kInvalidInput);
}

}  // namespace
}  // namespace ganopc::engine
