// End-to-end robustness for supervised batch mode (`ganopc batch --workers`):
// runs the real CLI as a subprocess and proves the ISSUE acceptance criteria —
// a batch with injected SIGSEGV / SIGKILL / OOM / hang faults completes with
// faulted clips degraded or quarantined while every clean clip's manifest row
// stays bit-identical to an unsupervised run, and a SIGKILLed supervised run
// resumes to a bit-identical manifest.
//
// Faults are armed via the `proc.clip_fault` failpoint and selected by
// clip-id suffix (see batch_runner.cpp): `x_segv1` crashes one worker then
// succeeds, `x_kill` crashes every worker it meets until quarantined.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "geometry/layout.hpp"
#include "obs/ledger.hpp"
#include "output_pins.hpp"

#ifndef GANOPC_CLI_PATH
#error "GANOPC_CLI_PATH must point at the ganopc CLI binary"
#endif

// Small RLIMIT_DATA caps starve the sanitizer allocators (the shadow itself
// is exempt, but ASan's region reservations are not), so the rlimit leg of
// the kill matrix only runs in plain builds. The `_oom` fault still dies in
// sanitized builds — its allocation loop is bounded and ends in SIGKILL.
#if defined(__SANITIZE_ADDRESS__)
#define GANOPC_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GANOPC_UNDER_ASAN 1
#endif
#endif
#ifndef GANOPC_UNDER_ASAN
#define GANOPC_UNDER_ASAN 0
#endif

namespace ganopc {
namespace {

namespace fs = std::filesystem;

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class BatchSupervisedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "ganopc_batch_supervised").string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  // One single-wire clip per file; `name` doubles as the clip id (and thus
  // the fault marker). `variant` shifts the wire so ids map to distinct
  // geometry and distinct manifest rows.
  std::string make_clip(const std::string& name, int variant) {
    const std::int32_t clip_nm = 2048;
    geom::Layout l(geom::Rect{0, 0, clip_nm, clip_nm});
    const std::int32_t mid = clip_nm / 2 + 64 * (variant - 2);
    l.add({mid - 60, mid - 500, mid + 60, mid + 500});
    const std::string p = path(name + ".txt");
    l.save(p);
    return p;
  }

  int run_cli(const std::string& args, const std::string& failpoints = "") {
    std::string cmd;
    if (!failpoints.empty()) cmd += "GANOPC_FAILPOINTS='" + failpoints + "' ";
    // `exec` so a SIGKILL of the CLI shows up in the wait status directly.
    cmd += std::string("exec '") + GANOPC_CLI_PATH + "' " + args + " > " +
           path("stdout.txt") + " 2>&1";
    return std::system(cmd.c_str());
  }

  std::string stdout_text() const { return read_bytes(path("stdout.txt")); }

  std::string dir_;
};

TEST_F(BatchSupervisedTest, SupervisedManifestMatchesSequentialBitForBit) {
  std::string clips;
  for (int i = 0; i < 4; ++i) {
    if (i) clips += ",";
    clips += make_clip("clip" + std::to_string(i), i);
  }
  const std::string common = "batch --clips " + clips +
                             " --scale quick --grid 64 --iters 8"
                             " --deterministic-manifest 1";

  const int seq = run_cli(common + " --manifest " + path("seq.csv"));
  ASSERT_TRUE(WIFEXITED(seq) && WEXITSTATUS(seq) == 0) << stdout_text();
  const int sup = run_cli(common + " --workers 3 --manifest " + path("sup.csv"));
  ASSERT_TRUE(WIFEXITED(sup) && WEXITSTATUS(sup) == 0) << stdout_text();

  const std::string seq_csv = read_bytes(path("seq.csv"));
  ASSERT_FALSE(seq_csv.empty());
  EXPECT_EQ(read_bytes(path("sup.csv")), seq_csv);
}

TEST_F(BatchSupervisedTest, SupervisedManifestMatchesThePinnedManifest) {
  // The batch test_output_pins runs in process, here through two forked
  // workers: both must reduce to the same pinned manifest hash.
  std::string clips;
  for (const std::string& p : testutil::write_pinned_clips(dir_)) {
    if (!clips.empty()) clips += ",";
    clips += p;
  }
  const int sup = run_cli("batch --clips " + clips + " " + testutil::pinned_batch_flags() +
                          " --workers 2 --manifest " + path("sup.csv"));
  ASSERT_TRUE(WIFEXITED(sup) && WEXITSTATUS(sup) == 0) << stdout_text();
  EXPECT_EQ(testutil::manifest_pin(read_bytes(path("sup.csv"))), testutil::kPinnedManifest);
}

TEST_F(BatchSupervisedTest, KillMatrixDegradesQuarantinesAndSparesCleanClips) {
  // One clean clip, one that segfaults a worker once, one that SIGKILLs
  // every worker (poison), one that hangs until the task deadline fires.
  const std::string clips = make_clip("good", 0) + "," +
                            make_clip("flaky_segv1", 1) + "," +
                            make_clip("poison_kill", 2) + "," +
                            make_clip("wedge_hang1", 3);
  // The loose accept factor lets the MB-OPC rung pass its gate — a crash
  // survivor degrades to MB-OPC, and the test wants that path to *succeed*
  // so the degradation (not just the quarantine) is observable.
  const std::string common = "batch --clips " + clips +
                             " --scale quick --grid 64 --iters 8"
                             " --deterministic-manifest 1 --task-deadline-s 20"
                             " --accept-factor 100";

  // Reference rows for the *clean* clip come from an unsupervised, unfaulted
  // run of the same inputs.
  const int ref = run_cli(common + " --manifest " + path("ref.csv"));
  ASSERT_TRUE(WIFEXITED(ref) && WEXITSTATUS(ref) == 0) << stdout_text();

  const int sup = run_cli(common + " --workers 2 --quarantine-kills 3" +
                              " --manifest " + path("sup.csv") + " --ledger-out " +
                              path("run.jsonl"),
                          "proc.clip_fault:0:-1");
  // The poison clip fails its row, so the batch exits 3 — but it *exits*.
  ASSERT_TRUE(WIFEXITED(sup)) << stdout_text();
  ASSERT_EQ(WEXITSTATUS(sup), 3) << stdout_text();

  // Row-level verdicts.
  std::vector<std::string> ref_rows, sup_rows;
  {
    std::ifstream r(path("ref.csv")), s(path("sup.csv"));
    std::string line;
    while (std::getline(r, line)) ref_rows.push_back(line);
    while (std::getline(s, line)) sup_rows.push_back(line);
  }
  ASSERT_EQ(sup_rows.size(), 5u);  // header + 4 clips
  ASSERT_EQ(ref_rows.size(), 5u);
  EXPECT_EQ(sup_rows[0], ref_rows[0]);
  EXPECT_EQ(sup_rows[1], ref_rows[1]);  // clean clip: bit-identical row
  // The segv survivor completed one rung down (a fallback was consumed) and
  // still landed an ok row.
  EXPECT_NE(sup_rows[2].find("flaky_segv1"), std::string::npos);
  EXPECT_NE(sup_rows[2].find(",ok,"), std::string::npos) << sup_rows[2];
  EXPECT_NE(sup_rows[2], ref_rows[2]);  // degraded, so not the same row
  // The poison clip is a typed quarantine, not a hang or a crash of the run.
  EXPECT_NE(sup_rows[3].find("poison_kill"), std::string::npos);
  EXPECT_NE(sup_rows[3].find("Quarantined"), std::string::npos) << sup_rows[3];
  // The hanging clip was deadline-killed once, then completed.
  EXPECT_NE(sup_rows[4].find("wedge_hang1"), std::string::npos);
  EXPECT_NE(sup_rows[4].find(",ok,"), std::string::npos) << sup_rows[4];

  // Forensics trail: spawn/death/quarantine events in the supervisor ledger,
  // per-worker ledgers on disk, and at least one death report naming the
  // poison clip with its rusage.
  const obs::LedgerFile lf = obs::read_ledger(path("run.jsonl"));
  int spawns = 0, deaths = 0, quarantines = 0;
  std::vector<std::string> report_paths;
  for (const auto& ev : lf.events) {
    const std::string type = ev.string_or("type", "");
    if (type == "worker_spawn") ++spawns;
    if (type == "worker_death") {
      ++deaths;
      const std::string report = ev.string_or("report", "");
      if (!report.empty()) report_paths.push_back(report);
    }
    if (type == "clip_quarantined") ++quarantines;
  }
  EXPECT_GE(spawns, 2);
  EXPECT_GE(deaths, 5);  // 1 segv + 3 poison kills + 1 deadline kill
  EXPECT_EQ(quarantines, 1);
  EXPECT_TRUE(fs::exists(path("run.jsonl.w0")));
  EXPECT_TRUE(fs::exists(path("run.jsonl.w1")));
  ASSERT_FALSE(report_paths.empty());
  bool poison_report = false;
  for (const auto& rp : report_paths) {
    ASSERT_TRUE(fs::exists(rp)) << rp;
    const obs::LedgerFile report = obs::read_ledger(rp);
    ASSERT_EQ(report.events.size(), 1u);
    if (report.events[0].string_or("task", "") == "poison_kill") {
      poison_report = true;
      EXPECT_NE(report.events[0].find("rusage"), nullptr);
    }
  }
  EXPECT_TRUE(poison_report);
}

#if !GANOPC_UNDER_ASAN
TEST_F(BatchSupervisedTest, OomClipDiesAgainstTheRlimitAndIsRetried) {
  const std::string clips = make_clip("good", 0) + "," + make_clip("fat_oom1", 1);
  const int sup = run_cli("batch --clips " + clips +
                              " --scale quick --grid 64 --iters 8"
                              " --deterministic-manifest 1 --workers 2"
                              " --accept-factor 100"
                              " --worker-mem-mb 512 --manifest " +
                              path("oom.csv") + " --ledger-out " + path("oom.jsonl"),
                          "proc.clip_fault:0:-1");
  // The OOM clip kills its worker against RLIMIT_DATA, is requeued with one
  // rung dropped, and completes — the batch exits clean.
  ASSERT_TRUE(WIFEXITED(sup)) << stdout_text();
  ASSERT_EQ(WEXITSTATUS(sup), 0) << stdout_text();
  const std::string manifest = read_bytes(path("oom.csv"));
  EXPECT_NE(manifest.find("fat_oom1"), std::string::npos);
  EXPECT_EQ(manifest.find("Quarantined"), std::string::npos) << manifest;
  // The death report's peak RSS proves the sandbox held: well under 1 GiB
  // where the unlimited fault would have grown to 2 GiB.
  const obs::LedgerFile lf = obs::read_ledger(path("oom.jsonl"));
  bool saw_death = false;
  for (const auto& ev : lf.events) {
    if (ev.string_or("type", "") != "worker_death") continue;
    saw_death = true;
    EXPECT_LT(ev.number_or("max_rss_kb", 0.0), 1024.0 * 1024.0);
  }
  EXPECT_TRUE(saw_death);
}
#endif

TEST_F(BatchSupervisedTest, KilledSupervisedRunResumesBitForBit) {
  std::string clips;
  for (int i = 0; i < 4; ++i) {
    if (i) clips += ",";
    clips += make_clip("clip" + std::to_string(i), i);
  }
  const std::string common = "batch --clips " + clips +
                             " --scale quick --grid 64 --iters 8"
                             " --deterministic-manifest 1 --workers 2";

  const int ref = run_cli(common + " --journal " + path("ref.journal") +
                          " --manifest " + path("ref.csv"));
  ASSERT_TRUE(WIFEXITED(ref) && WEXITSTATUS(ref) == 0) << stdout_text();
  const std::string ref_manifest = read_bytes(path("ref.csv"));
  ASSERT_FALSE(ref_manifest.empty());

  // SIGKILL the *dispatcher* right after the second journal commit — workers
  // and all. The journal must already hold the two completed rows.
  const int killed = run_cli(common + " --journal " + path("kill.journal") +
                                 " --manifest " + path("kill.csv"),
                             "batch.kill:1:1");
  ASSERT_TRUE(WIFSIGNALED(killed)) << stdout_text();
  EXPECT_EQ(WTERMSIG(killed), SIGKILL);
  ASSERT_TRUE(fs::exists(path("kill.journal")));
  EXPECT_FALSE(fs::exists(path("kill.csv")));

  const int resumed = run_cli(common + " --resume " + path("kill.journal") +
                              " --manifest " + path("kill.csv"));
  ASSERT_TRUE(WIFEXITED(resumed) && WEXITSTATUS(resumed) == 0) << stdout_text();
  EXPECT_NE(stdout_text().find("resumed from journal"), std::string::npos);
  // The manifest — the deliverable — is bit-identical. (The journal is id-
  // keyed but section order follows completion order under a pool, so the
  // *file* is not the bit-identity target; the manifest is.)
  EXPECT_EQ(read_bytes(path("kill.csv")), ref_manifest);

  // A sequential resume of the same supervised journal also replays cleanly:
  // worker count is execution policy, not batch identity.
  const int seq_resume =
      run_cli("batch --clips " + clips +
              " --scale quick --grid 64 --iters 8 --deterministic-manifest 1" +
              " --resume " + path("kill.journal") + " --manifest " +
              path("seq_resume.csv"));
  ASSERT_TRUE(WIFEXITED(seq_resume) && WEXITSTATUS(seq_resume) == 0)
      << stdout_text();
  EXPECT_EQ(read_bytes(path("seq_resume.csv")), ref_manifest);
}

}  // namespace
}  // namespace ganopc
