// `ganopc train` kill/resume across the pretrain -> adversarial boundary: a
// run killed at a checkpoint save and restarted with --resume must write the
// uninterrupted run's generator byte for byte, whether the surviving
// checkpoint is mid-pretrain, a completed pretrain or mid-adversarial.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#ifndef GANOPC_CLI_PATH
#error "GANOPC_CLI_PATH must point at the ganopc CLI binary"
#endif

namespace ganopc {
namespace {

namespace fs = std::filesystem;

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class TrainCliResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "ganopc_train_cli_resume").string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  /// Runs `ganopc train` in the temp dir (the dataset cache is shared by
  /// every run); returns the shell's exit status.
  int run_train(const std::string& extra, const std::string& failpoints = "") {
    std::string cmd = "cd '" + dir_ + "' && ";
    if (!failpoints.empty()) cmd += "GANOPC_FAILPOINTS='" + failpoints + "' ";
    cmd += std::string("exec '") + GANOPC_CLI_PATH +
           "' train --scale quick --pretrain-iters 6 --train-iters 8"
           " --checkpoint-every 3 --checkpoint train.ckpt " +
           extra + " > " + path("stdout.txt") + " 2>&1";
    return std::system(cmd.c_str());
  }

  std::string stdout_text() const { return read_bytes(path("stdout.txt")); }

  std::string dir_;
};

TEST_F(TrainCliResumeTest, KillAtEachPhaseBoundaryResumesBitForBit) {
  ASSERT_EQ(run_train("--out ref.bin"), 0) << stdout_text();
  const std::string ref = read_bytes(path("ref.bin"));
  ASSERT_FALSE(ref.empty());

  // Saves happen at pretrain 3/6, 6/6, then adversarial 3/8, 6/8, 8/8.
  // Failing save k+1 leaves save k's checkpoint behind.
  const struct {
    int skip;
    const char* resumed;
  } cases[] = {{1, "(pretrain, iteration 3/6)"},
               {2, "(pretrain, iteration 6/6)"},
               {3, "(train, iteration 3/8)"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.resumed);
    fs::remove(path("train.ckpt"));
    const std::string out = "out" + std::to_string(c.skip) + ".bin";
    const int killed =
        run_train("--out " + out, "checkpoint.save:" + std::to_string(c.skip) + ":1");
    ASSERT_TRUE(WIFEXITED(killed) && WEXITSTATUS(killed) == 1) << stdout_text();
    EXPECT_FALSE(fs::exists(path(out)));

    ASSERT_EQ(run_train("--out " + out + " --resume train.ckpt"), 0) << stdout_text();
    EXPECT_NE(stdout_text().find(c.resumed), std::string::npos) << stdout_text();
    EXPECT_TRUE(read_bytes(path(out)) == ref) << out << " differs from ref.bin";
  }
}

}  // namespace
}  // namespace ganopc
