// What the end-to-end output pins share: the hash, the clips, and the one
// batch whose manifest is pinned both in process (test_output_pins,
// `workers` 0) and through `ganopc batch --workers 2` (test_batch_supervised).
// Both compare against the same constant, so a supervised run that
// drifts from the in-process one fails as surely as a change to either.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "layout/synthesizer.hpp"

namespace ganopc::testutil {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a 64, continued from `h` over `bytes` bytes at `data`.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h = kFnvBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The clips every end-to-end pin runs: `ganopc synth --count 3` at its
/// default seed.
inline std::vector<geom::Layout> pinned_clips() {
  return layout::synthesize_library(layout::SynthesisConfig{}, 3, 1847);
}

/// Writes pinned_clips() as `<dir>/clip<i>.txt` and returns the paths, so a
/// batch over them names its rows clip0..clip2.
inline std::vector<std::string> write_pinned_clips(const std::string& dir) {
  std::vector<std::string> paths;
  const std::vector<geom::Layout> clips = pinned_clips();
  for (std::size_t i = 0; i < clips.size(); ++i) {
    paths.push_back(dir + "/clip" + std::to_string(i) + ".txt");
    clips[i].save(paths.back());
  }
  return paths;
}

/// The pinned batch: quick scale with these settings and a deterministic
/// manifest.
inline constexpr std::int32_t kPinnedBatchGrid = 128;
inline constexpr char kPinnedBatchBackend[] = "tcc:8";
inline constexpr int kPinnedBatchIters = 20;

/// The pinned batch as `ganopc batch` flags (workers and manifest path left
/// to the caller).
inline std::string pinned_batch_flags() {
  return "--scale quick --grid " + std::to_string(kPinnedBatchGrid) + " --litho-backend " +
         kPinnedBatchBackend + " --iters " + std::to_string(kPinnedBatchIters) +
         " --deterministic-manifest 1";
}

/// FNV-1a 64 of a manifest CSV without its `source` and `runtime_s`
/// columns: a clip's file path and wall time are the only cells two runs of
/// the same batch may disagree on.
inline std::uint64_t manifest_pin(const std::string& csv) {
  std::istringstream in(csv);
  std::string line, kept;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, ',');) cells.push_back(cell);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i == 1 || i + 1 == cells.size()) continue;  // source, runtime_s
      kept += cells[i];
      kept += ',';
    }
    kept += '\n';
  }
  return fnv1a(kept.data(), kept.size());
}

/// manifest_pin() of the pinned batch, the same on both dispatch arms.
inline constexpr std::uint64_t kPinnedManifest = 0x477792272dd32e67ULL;

}  // namespace ganopc::testutil
