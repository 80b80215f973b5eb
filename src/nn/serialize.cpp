#include "nn/serialize.hpp"

#include <cstdint>
#include <sstream>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"

namespace ganopc::nn {

namespace {

constexpr std::uint32_t kMaxTensors = 1u << 20;
constexpr std::uint32_t kMaxNameLen = 256;
constexpr std::uint32_t kMaxNdim = 8;
// Caps a single tensor at 2^31 floats (8 GiB) — far above any real network
// here, low enough that a corrupt dim cannot trigger a huge allocation.
constexpr std::int64_t kMaxNumel = std::int64_t{1} << 31;

std::vector<std::int64_t> read_shape(ByteReader& r, const std::string& what) {
  const auto ndim = r.pod<std::uint32_t>();
  GANOPC_CHECK_MSG(ndim <= kMaxNdim, "corrupt " << what << ": implausible ndim " << ndim);
  std::vector<std::int64_t> shape(ndim);
  std::int64_t numel = 1;
  for (auto& d : shape) {
    d = r.pod<std::int64_t>();
    GANOPC_CHECK_MSG(d > 0 && d <= kMaxNumel, "corrupt " << what << ": bad dim " << d);
    numel *= d;
    GANOPC_CHECK_MSG(numel <= kMaxNumel, "corrupt " << what << ": tensor too large");
  }
  return shape;
}

std::string shape_str(const std::vector<std::int64_t>& shape) {
  std::ostringstream oss;
  oss << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) oss << (i ? "x" : "") << shape[i];
  oss << "]";
  return oss.str();
}

void read_floats(ByteReader& r, Tensor& into, const std::string& what) {
  GANOPC_CHECK_MSG(r.remaining() >= static_cast<std::size_t>(into.numel()) * sizeof(float),
                   "truncated " << what << ": tensor data cut short");
  r.bytes(into.data(), static_cast<std::size_t>(into.numel()) * sizeof(float));
}

}  // namespace

void write_named_tensors(ByteWriter& w, const std::vector<Param>& params) {
  w.pod(static_cast<std::uint32_t>(params.size()));
  for (const auto& p : params) {
    w.str(p.name);
    const auto& shape = p.value->shape();
    w.pod(static_cast<std::uint32_t>(shape.size()));
    for (auto d : shape) w.pod(static_cast<std::int64_t>(d));
    w.bytes(p.value->data(), static_cast<std::size_t>(p.value->numel()) * sizeof(float));
  }
}

void read_named_tensors(ByteReader& r, const std::vector<Param>& params,
                        const std::string& what) {
  const auto count = r.pod<std::uint32_t>();
  GANOPC_CHECK_MSG(count <= kMaxTensors, "corrupt " << what << ": implausible tensor count "
                                                    << count);
  GANOPC_CHECK_MSG(count == params.size(), what << " has " << count
                                                << " tensors, network expects "
                                                << params.size());
  for (const auto& p : params) {
    const std::string name = r.str(kMaxNameLen);
    GANOPC_CHECK_MSG(name == p.name, what << " tensor '" << name
                                          << "' does not match expected '" << p.name << "'");
    const auto shape = read_shape(r, what);
    GANOPC_CHECK_MSG(shape == p.value->shape(),
                     what << " shape mismatch for '" << name << "': file "
                          << shape_str(shape) << ", network " << p.value->shape_str());
    read_floats(r, *p.value, what);
  }
}

void write_tensor(ByteWriter& w, const Tensor& t) {
  const auto& shape = t.shape();
  w.pod(static_cast<std::uint32_t>(shape.size()));
  for (auto d : shape) w.pod(static_cast<std::int64_t>(d));
  w.bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

Tensor read_tensor(ByteReader& r, const std::string& what) {
  Tensor t(read_shape(r, what));
  read_floats(r, t, what);
  return t;
}

void save_parameters(Layer& net, const std::string& path) {
  GANOPC_FAILPOINT_THROW("serialize.save");
  SectionedFileWriter file(kCheckpointMagicV2);
  write_named_tensors(file.section("params"), net.parameters());
  write_named_tensors(file.section("buffers"), net.buffers());
  file.write(path);
}

void load_parameters(Layer& net, const std::string& path) {
  const SectionedFileReader file(path, kCheckpointMagicV2);
  // A weights file carries "params"/"buffers"; a full trainer checkpoint
  // (core/checkpoint.cpp) carries the same blobs as "gen_params"/
  // "gen_buffers" — accept either so `--generator ckpt.bin` just works.
  const bool trainer_ckpt = !file.has("params") && file.has("gen_params");
  const std::string params_sec = trainer_ckpt ? "gen_params" : "params";
  const std::string buffers_sec = trainer_ckpt ? "gen_buffers" : "buffers";
  {
    ByteReader r = file.open(params_sec);
    read_named_tensors(r, net.parameters(), path + " " + params_sec);
    r.expect_exhausted();
  }
  if (file.has(buffers_sec)) {
    ByteReader r = file.open(buffers_sec);
    read_named_tensors(r, net.buffers(), path + " " + buffers_sec);
    r.expect_exhausted();
  } else if (!net.buffers().empty()) {
    GANOPC_WARN(path << ": no " << buffers_sec
                     << " section; batch-norm running statistics keep their "
                        "initialization");
  }
}

}  // namespace ganopc::nn
