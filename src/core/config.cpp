#include "core/config.hpp"

#include <algorithm>
#include <cctype>

#include "common/error.hpp"
#include "fft/fft.hpp"

namespace ganopc::core {

void GanOpcConfig::validate() const {
  GANOPC_CHECK_MSG(fft::is_pow2(static_cast<std::size_t>(litho_grid)) &&
                       fft::is_pow2(static_cast<std::size_t>(gan_grid)),
                   "grids must be powers of two");
  GANOPC_CHECK_MSG(litho_grid % gan_grid == 0, "litho grid must be a multiple of gan grid");
  GANOPC_CHECK_MSG(clip_nm % litho_grid == 0, "clip must divide evenly into litho pixels");
  GANOPC_CHECK_MSG(gan_grid % 8 == 0, "gan grid must divide by 8 (three stride-2 stages)");
  GANOPC_CHECK(base_channels > 0 && batch_size > 0);
  GANOPC_CHECK(gan_iterations >= 0 && pretrain_iterations >= 0);
  GANOPC_CHECK(lr_generator > 0 && lr_discriminator > 0 && pretrain_lr > 0);
  GANOPC_CHECK(alpha_l2 >= 0);
  GANOPC_CHECK(library_size > 0);
  GANOPC_CHECK_MSG(optics.valid(), "invalid optics");
}

GanOpcConfig make_config(ReproScale scale) {
  GanOpcConfig cfg;
  switch (scale) {
    case ReproScale::Quick:
      cfg.litho_grid = 128;
      cfg.gan_grid = 32;
      cfg.base_channels = 4;
      cfg.library_size = 8;
      cfg.batch_size = 2;
      cfg.gan_iterations = 30;
      cfg.pretrain_iterations = 8;
      cfg.ilt.max_iterations = 60;
      cfg.ilt.check_every = 5;
      break;
    case ReproScale::Default:
      cfg.litho_grid = 256;
      cfg.gan_grid = 64;
      cfg.base_channels = 8;
      cfg.library_size = 64;
      cfg.batch_size = 4;
      cfg.gan_iterations = 300;
      cfg.pretrain_iterations = 60;
      cfg.ilt.max_iterations = 300;
      break;
    case ReproScale::Paper:
      cfg.litho_grid = 2048;  // 1nm pixels as in the contest raster
      cfg.gan_grid = 256;     // the paper's 8x8-pooled GAN resolution
      cfg.base_channels = 16;
      cfg.library_size = 4000;
      cfg.batch_size = 16;
      cfg.gan_iterations = 10000;
      cfg.pretrain_iterations = 1000;
      cfg.ilt.max_iterations = 1000;
      break;
  }
  cfg.validate();
  return cfg;
}

ReproScale parse_scale(const std::string& name) {
  std::string s = name;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (s == "quick") return ReproScale::Quick;
  if (s == "default") return ReproScale::Default;
  if (s == "paper") return ReproScale::Paper;
  GANOPC_CHECK_MSG(false, "unknown scale '" << name << "' (quick|default|paper)");
}

const char* scale_name(ReproScale scale) {
  switch (scale) {
    case ReproScale::Quick: return "quick";
    case ReproScale::Default: return "default";
    case ReproScale::Paper: return "paper";
  }
  return "?";
}

}  // namespace ganopc::core
