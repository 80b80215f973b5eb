// Binary checkpointing of network parameters.
//
// Current format ("GOPCNET2"): a CRC-guarded sectioned container
// (common/sectioned_file.hpp) with a "params" section holding the learnable
// tensors and a "buffers" section holding persistent non-learnable state
// (batch-norm running statistics). Saves are atomic (temp + fsync + rename)
// and every load path is bounds-checked, so truncated or bit-flipped files
// raise ganopc::Error instead of yielding zero-filled tensors.
//
// Tensor blob framing inside a section, shared with the trainer checkpoint
// (core/checkpoint.cpp): u32 tensor count, then per tensor
//   u32 name length | name bytes | u32 ndim | i64 dims... | f32 data...
#pragma once

#include <string>
#include <vector>

#include "common/sectioned_file.hpp"
#include "nn/layer.hpp"

namespace ganopc::nn {

/// Magic for the sectioned checkpoint container.
inline constexpr char kCheckpointMagicV2[] = "GOPCNET2";

/// Save all parameters and buffers of `net` to `path` (GOPCNET2, atomic).
/// Throws ganopc::Error on failure; a failed save never corrupts an
/// existing file at `path`.
void save_parameters(Layer& net, const std::string& path);

/// Load parameters saved by save_parameters into `net` (GOPCNET2: params +
/// buffers). Also accepts a full trainer checkpoint (core/checkpoint.cpp),
/// reading its generator sections. The network must have identical
/// parameter names / shapes in the same order.
void load_parameters(Layer& net, const std::string& path);

// --- tensor blob helpers (reused by the trainer checkpoint) ---

/// Append the named tensors (`p.value` of each entry) to `w`.
void write_named_tensors(ByteWriter& w, const std::vector<Param>& params);

/// Read tensors written by write_named_tensors into `params`, enforcing
/// matching count, names and shapes. `what` names the blob in errors.
void read_named_tensors(ByteReader& r, const std::vector<Param>& params,
                        const std::string& what);

/// Single-tensor framing (u32 ndim | i64 dims | f32 data), for optimizer
/// moment vectors where names are positional.
void write_tensor(ByteWriter& w, const Tensor& t);
Tensor read_tensor(ByteReader& r, const std::string& what);

}  // namespace ganopc::nn
