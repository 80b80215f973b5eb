#include <gtest/gtest.h>

#include <cmath>

#include "common/prng.hpp"
#include "gradcheck.hpp"
#include "nn/layers.hpp"

namespace ganopc::nn {
namespace {

using ganopc::testing::check_layer_gradients;
using ganopc::testing::random_tensor;

TEST(ReLULayer, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x({4}, {-1, 0, 2, -3});
  Tensor y = relu.forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(ReLULayer, GradCheck) {
  Prng rng(1);
  ReLU relu;
  // Keep inputs away from the kink at 0.
  Tensor x = random_tensor({2, 3, 4, 4}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    if (std::fabs(x[i]) < 0.1f) x[i] = 0.5f;
  check_layer_gradients(relu, x, rng, 1e-3f);
}

TEST(LeakyReLULayer, ForwardSlope) {
  LeakyReLU lrelu(0.1f);
  Tensor x({2}, {-10, 10});
  Tensor y = lrelu.forward(x);
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], 10.0f);
}

TEST(LeakyReLULayer, GradCheck) {
  Prng rng(2);
  LeakyReLU lrelu(0.2f);
  Tensor x = random_tensor({2, 2, 4, 4}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    if (std::fabs(x[i]) < 0.1f) x[i] = -0.5f;
  check_layer_gradients(lrelu, x, rng, 1e-3f);
}

TEST(SigmoidLayer, ForwardValues) {
  Sigmoid sig;
  Tensor x({3}, {0, 100, -100});
  Tensor y = sig.forward(x);
  EXPECT_NEAR(y[0], 0.5f, 1e-6f);
  EXPECT_NEAR(y[1], 1.0f, 1e-6f);
  EXPECT_NEAR(y[2], 0.0f, 1e-6f);
}

TEST(SigmoidLayer, GradCheck) {
  Prng rng(3);
  Sigmoid sig;
  check_layer_gradients(sig, random_tensor({2, 1, 3, 3}, rng), rng);
}

TEST(TanhLayer, GradCheck) {
  Prng rng(4);
  Tanh t;
  check_layer_gradients(t, random_tensor({1, 2, 3, 3}, rng), rng);
}

TEST(LinearLayer, ForwardShape) {
  Prng rng(6);
  Linear lin(8, 3);
  for (auto& p : lin.parameters())
    for (std::int64_t i = 0; i < p.value->numel(); ++i)
      (*p.value)[i] = static_cast<float>(rng.uniform(-1, 1));
  Tensor x = random_tensor({5, 8}, rng);
  Tensor y = lin.forward(x);
  EXPECT_EQ(y.shape(0), 5);
  EXPECT_EQ(y.shape(1), 3);
}

TEST(LinearLayer, KnownValues) {
  Linear lin(2, 1);
  lin.weight()[0] = 2.0f;
  lin.weight()[1] = 3.0f;
  lin.bias()[0] = 1.0f;
  Tensor x({1, 2}, {4, 5});
  EXPECT_FLOAT_EQ(lin.forward(x)[0], 2 * 4 + 3 * 5 + 1);
}

TEST(LinearLayer, GradCheck) {
  Prng rng(7);
  Linear lin(6, 4);
  for (auto& p : lin.parameters())
    for (std::int64_t i = 0; i < p.value->numel(); ++i)
      (*p.value)[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  check_layer_gradients(lin, random_tensor({3, 6}, rng), rng);
}

TEST(FlattenLayer, RoundTrip) {
  Flatten fl;
  Tensor x({2, 3, 4, 5});
  Tensor y = fl.forward(x);
  EXPECT_EQ(y.shape(0), 2);
  EXPECT_EQ(y.shape(1), 60);
  Tensor back = fl.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(SequentialLayer, ComposesAndBackprops) {
  Prng rng(8);
  Sequential seq;
  seq.emplace<Linear>(4, 8);
  seq.emplace<Tanh>();
  seq.emplace<Linear>(8, 2);
  for (auto& p : seq.parameters())
    for (std::int64_t i = 0; i < p.value->numel(); ++i)
      (*p.value)[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  check_layer_gradients(seq, random_tensor({2, 4}, rng), rng);
}

TEST(SequentialLayer, ParameterNamesArePrefixed) {
  Sequential seq;
  seq.emplace<Linear>(2, 2);
  seq.emplace<Linear>(2, 2);
  const auto params = seq.parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "0.weight");
  EXPECT_EQ(params[2].name, "1.weight");
}

TEST(SequentialLayer, ZeroGradClearsAll) {
  Sequential seq;
  seq.emplace<Linear>(3, 3);
  auto params = seq.parameters();
  (*params[0].grad)[0] = 5.0f;
  seq.zero_grad();
  EXPECT_EQ((*params[0].grad)[0], 0.0f);
}

}  // namespace
}  // namespace ganopc::nn
