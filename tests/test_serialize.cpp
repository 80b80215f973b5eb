#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/prng.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/serialize.hpp"

namespace ganopc::nn {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Sequential make_net(std::uint64_t seed) {
  Sequential net;
  net.emplace<Conv2d>(1, 4, 3, 2, 1);
  net.emplace<ReLU>();
  net.emplace<Flatten>();
  net.emplace<Linear>(4 * 4 * 4, 2);
  Prng rng(seed);
  init_network(net, rng);
  return net;
}

TEST(Serialize, RoundTripRestoresWeights) {
  Sequential a = make_net(1);
  const auto path = temp_path("ganopc_net.bin");
  save_parameters(a, path);

  Sequential b = make_net(2);  // different init
  load_parameters(b, path);
  auto pa = a.parameters();
  auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t j = 0; j < pa[i].value->numel(); ++j)
      EXPECT_EQ((*pa[i].value)[j], (*pb[i].value)[j]);
  std::remove(path.c_str());
}

TEST(Serialize, LoadedNetworkComputesIdentically) {
  Sequential a = make_net(3);
  const auto path = temp_path("ganopc_net2.bin");
  save_parameters(a, path);
  Sequential b = make_net(4);
  load_parameters(b, path);

  Prng rng(5);
  Tensor x({1, 1, 8, 8});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform(0, 1));
  a.set_training(false);
  b.set_training(false);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsArchitectureMismatch) {
  Sequential a = make_net(6);
  const auto path = temp_path("ganopc_net3.bin");
  save_parameters(a, path);
  Sequential other;
  other.emplace<Linear>(4, 4);
  EXPECT_THROW(load_parameters(other, path), Error);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbageFile) {
  const auto path = temp_path("ganopc_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint";
  }
  Sequential net = make_net(7);
  EXPECT_THROW(load_parameters(net, path), Error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  Sequential net = make_net(8);
  EXPECT_THROW(load_parameters(net, "/nonexistent/net.bin"), Error);
}

TEST(Serialize, BatchNormBuffersRoundTrip) {
  // Running statistics are non-learnable state; GOPCNET2 must carry them so
  // a reloaded network computes identically in eval mode.
  Sequential a;
  a.emplace<Conv2d>(1, 4, 3, 1, 1);
  a.emplace<BatchNorm2d>(4);
  Prng rng(11);
  init_network(a, rng);
  // Mutate the running stats away from their initialization.
  a.set_training(true);
  Tensor x({2, 1, 8, 8});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.normal(0.0, 1.0));
  a.forward(x);

  const auto path = temp_path("ganopc_net_bn.bin");
  save_parameters(a, path);
  Sequential b;
  b.emplace<Conv2d>(1, 4, 3, 1, 1);
  b.emplace<BatchNorm2d>(4);
  Prng rng2(12);
  init_network(b, rng2);
  load_parameters(b, path);

  const auto ba = a.buffers();
  const auto bb = b.buffers();
  ASSERT_EQ(ba.size(), bb.size());
  ASSERT_FALSE(ba.empty());
  for (std::size_t i = 0; i < ba.size(); ++i)
    for (std::int64_t j = 0; j < ba[i].value->numel(); ++j)
      EXPECT_EQ((*ba[i].value)[j], (*bb[i].value)[j]);
  std::remove(path.c_str());
}

// Write a GOPCNET1 stream by hand: magic, u64 count, then per param
// u64 name_len | name | u64 ndim | i64 dims | f32 data. The loader accepts
// only GOPCNET2, so this weight-only stream must be refused.
void write_legacy_v1(const std::string& path, const std::vector<Param>& params) {
  std::ofstream out(path, std::ios::binary);
  out.write("GOPCNET1", 8);
  const std::uint64_t count = params.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  for (const auto& p : params) {
    const std::uint64_t name_len = p.name.size();
    out.write(reinterpret_cast<const char*>(&name_len), sizeof name_len);
    out.write(p.name.data(), static_cast<std::streamsize>(name_len));
    const std::uint64_t ndim = p.value->shape().size();
    out.write(reinterpret_cast<const char*>(&ndim), sizeof ndim);
    for (const std::int64_t d : p.value->shape())
      out.write(reinterpret_cast<const char*>(&d), sizeof d);
    out.write(reinterpret_cast<const char*>(p.value->data()),
              static_cast<std::streamsize>(p.value->numel() * sizeof(float)));
  }
}

TEST(Serialize, LegacyV1IsRejectedAndLeavesNetworkUntouched) {
  Sequential a = make_net(9);
  const auto path = temp_path("ganopc_net_v1.bin");
  write_legacy_v1(path, a.parameters());

  Sequential b = make_net(10);
  std::vector<std::vector<float>> before;
  for (const auto& p : b.parameters())
    before.emplace_back(p.value->data(), p.value->data() + p.value->numel());
  EXPECT_THROW(load_parameters(b, path), Error);
  const auto pb = b.parameters();
  ASSERT_EQ(pb.size(), before.size());
  for (std::size_t i = 0; i < pb.size(); ++i)
    for (std::int64_t j = 0; j < pb[i].value->numel(); ++j)
      EXPECT_EQ((*pb[i].value)[j], before[i][static_cast<std::size_t>(j)]);
  std::remove(path.c_str());
}

TEST(Serialize, SaveFailpointLeavesNoFile) {
  Sequential a = make_net(15);
  const auto path = temp_path("ganopc_net_fp.bin");
  failpoint::arm("serialize.save");
  EXPECT_THROW(save_parameters(a, path), Error);
  failpoint::clear();
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace ganopc::nn
