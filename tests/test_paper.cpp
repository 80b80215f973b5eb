// The `paper` binary end to end (bench/paper.cpp): with no names it runs
// every experiment at GANOPC_SCALE=quick in a fresh directory, exits 0, and
// leaves each CSV with its header and data rows plus the 50 Figure 8 panels.
// An unknown name runs nothing and exits non-zero.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifndef GANOPC_PAPER_PATH
#error "GANOPC_PAPER_PATH must point at the paper binary"
#endif

namespace {

namespace fs = std::filesystem;

class PaperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / ("ganopc_paper_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  /// Exit status of `paper ARGS` run in the scratch directory at quick scale.
  int run_paper(const std::string& args) const {
    const std::string cmd = "cd '" + dir_ + "' && GANOPC_SCALE=quick exec '" +
                            GANOPC_PAPER_PATH + "' " + args + " > stdout.txt 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  std::string output() const {
    std::ifstream in(path("stdout.txt"));
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::string dir_;
};

TEST_F(PaperTest, EveryExperimentRunsAndWritesItsFiles) {
  ASSERT_EQ(run_paper(""), 0) << output();

  const std::vector<std::pair<std::string, std::string>> csvs = {
      {"ablation_discriminator.csv", "iteration,paired_l2,unpaired_l2"},
      {"ablation_generator.csv", "iteration,autoencoder_l2,unet_l2"},
      {"ablation_ilt_smoothness.csv", "lambda,l2_px,fragments,perimeter_px,iterations"},
      {"ablation_kernel_method.csv", "kernels,abbe_rms,abbe_build_s,tcc_rms,tcc_build_s"},
      {"ablation_kernels.csv", "num_kernels,rms_error,ms_per_aerial"},
      {"ablation_pretrain.csv", "iteration,pretrain_0,pretrain_half,pretrain_full"},
      {"ablation_sraf.csv",
       "wire_width_nm,bars,pvb_plain,pvb_sraf,l2_plain,l2_sraf,sraf_prints"},
      {"baseline_mbopc.csv", "case,uncorrected_l2,mbopc_l2,mbopc_rt,ilt_l2,ilt_rt"},
      {"extension_pv_ilt.csv", "case,nominal_l2,nominal_pvb,pv_l2,pv_pvb"},
      {"figure7_curves.csv", "iteration,gan_opc_l2,pgan_opc_l2"},
      {"process_window.csv", "defocus_nm,dose,cd_uncorrected,cd_ilt"},
      {"table2_results.csv",
       "case,area_nm2,ilt_l2,ilt_pvb,ilt_rt,gan_l2,gan_pvb,gan_rt,pgan_l2,pgan_pvb,"
       "pgan_rt"},
  };
  for (const auto& [name, header] : csvs) {
    std::ifstream in(path(name));
    ASSERT_TRUE(in.good()) << name << " missing";
    std::string first, row;
    std::getline(in, first);
    EXPECT_EQ(first, header) << name;
    EXPECT_TRUE(std::getline(in, row) && !row.empty()) << name << " has no data row";
  }

  int panels = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    panels += name.rfind("figure8_", 0) == 0 && entry.path().extension() == ".pgm";
  }
  EXPECT_EQ(panels, 50);
}

TEST_F(PaperTest, UnknownNameRunsNothing) {
  EXPECT_NE(run_paper("ablation_sraf no_such_experiment"), 0);
  EXPECT_FALSE(fs::exists(path("ablation_sraf.csv")));
  const std::string out = output();
  EXPECT_NE(out.find("no_such_experiment"), std::string::npos) << out;
  EXPECT_NE(out.find("table2_main"), std::string::npos) << out;
}

}  // namespace
