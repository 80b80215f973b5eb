#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"

namespace ganopc::nn {
namespace {

// A trivially-owned parameter for optimizer tests.
struct ParamBox {
  Tensor value{{1}};
  Tensor grad{{1}};
  Param param() { return {"w", &value, &grad}; }
};

TEST(Adam, FirstStepIsLrSized) {
  ParamBox box;
  box.grad[0] = 123.0f;  // Adam normalizes magnitude away on step 1
  Adam opt({box.param()}, 0.01f);
  opt.step();
  EXPECT_NEAR(box.value[0], -0.01f, 1e-4f);
}

TEST(Adam, MinimizesQuadratic) {
  ParamBox box;
  box.value[0] = -5.0f;
  Adam opt({box.param()}, 0.2f);
  for (int i = 0; i < 200; ++i) {
    box.grad[0] = 2.0f * (box.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(box.value[0], 3.0f, 1e-2f);
}

TEST(Adam, MinimizesIllConditionedPair) {
  // f(a, b) = 100 a^2 + b^2 — Adam handles scale disparity.
  ParamBox a, b;
  a.value[0] = 1.0f;
  b.value[0] = 1.0f;
  Adam opt({a.param(), b.param()}, 0.05f);
  for (int i = 0; i < 400; ++i) {
    a.grad[0] = 200.0f * a.value[0];
    b.grad[0] = 2.0f * b.value[0];
    opt.step();
  }
  EXPECT_NEAR(a.value[0], 0.0f, 1e-2f);
  EXPECT_NEAR(b.value[0], 0.0f, 1e-2f);
}

TEST(LrSchedule, ConstantIsConstant) {
  const LrSchedule s(0.01f);
  EXPECT_FLOAT_EQ(s.at(0), 0.01f);
  EXPECT_FLOAT_EQ(s.at(1000), 0.01f);
}

TEST(LrSchedule, WarmupRampsLinearly) {
  const LrSchedule s(0.1f, /*warmup=*/10);
  EXPECT_FLOAT_EQ(s.at(0), 0.01f);
  EXPECT_FLOAT_EQ(s.at(4), 0.05f);
  EXPECT_FLOAT_EQ(s.at(9), 0.1f);
  EXPECT_FLOAT_EQ(s.at(50), 0.1f);
}

TEST(LrSchedule, StepDecayHalves) {
  const LrSchedule s = LrSchedule::step_decay(0.08f, 100, 0.5f);
  EXPECT_FLOAT_EQ(s.at(0), 0.08f);
  EXPECT_FLOAT_EQ(s.at(99), 0.08f);
  EXPECT_FLOAT_EQ(s.at(100), 0.04f);
  EXPECT_FLOAT_EQ(s.at(250), 0.02f);
}

TEST(LrSchedule, CosineAnnealsToFloor) {
  const LrSchedule s = LrSchedule::cosine(0.1f, 100, 0.01f);
  EXPECT_FLOAT_EQ(s.at(0), 0.1f);
  EXPECT_NEAR(s.at(50), (0.1f + 0.01f) / 2.0f, 1e-4f);
  EXPECT_NEAR(s.at(100), 0.01f, 1e-4f);
  EXPECT_NEAR(s.at(500), 0.01f, 1e-4f);  // clamped past the horizon
}

TEST(LrSchedule, MonotoneDecayAfterWarmup) {
  const LrSchedule s = LrSchedule::cosine(0.1f, 200, 0.0f, 10);
  for (int i = 10; i < 200; ++i) EXPECT_GE(s.at(i) + 1e-7f, s.at(i + 1));
}

TEST(LrSchedule, AppliesToAdam) {
  ParamBox box;
  Adam opt({box.param()}, 0.5f);
  const LrSchedule s = LrSchedule::step_decay(0.04f, 10, 0.5f);
  s.apply(opt, 15);
  EXPECT_FLOAT_EQ(opt.learning_rate(), 0.02f);
}

TEST(LrSchedule, RejectsBadArgs) {
  EXPECT_THROW(LrSchedule(0.0f), Error);
  EXPECT_THROW(LrSchedule::step_decay(0.1f, 0, 0.5f), Error);
  EXPECT_THROW(LrSchedule::cosine(0.1f, 100, 0.2f), Error);
}

TEST(Adam, ZeroGrad) {
  ParamBox box;
  box.grad[0] = 7.0f;
  Adam opt({box.param()}, 0.1f);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(box.grad[0], 0.0f);
}

TEST(Adam, ClipGradNorm) {
  ParamBox a, b;
  a.grad[0] = 3.0f;
  b.grad[0] = 4.0f;  // norm 5
  Adam opt({a.param(), b.param()}, 0.1f);
  const float pre = opt.clip_grad_norm(1.0f);
  EXPECT_FLOAT_EQ(pre, 5.0f);
  EXPECT_NEAR(std::hypot(a.grad[0], b.grad[0]), 1.0f, 1e-5f);
}

TEST(Adam, ClipNoopBelowMax) {
  ParamBox a;
  a.grad[0] = 0.5f;
  Adam opt({a.param()}, 0.1f);
  opt.clip_grad_norm(1.0f);
  EXPECT_FLOAT_EQ(a.grad[0], 0.5f);
}

}  // namespace
}  // namespace ganopc::nn
