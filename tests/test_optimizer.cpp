#include <gtest/gtest.h>

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

TEST(Adam, ZeroGrad) {
  ParamBox box;
  box.grad[0] = 7.0f;
  Adam opt({box.param()}, 0.1f);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(box.grad[0], 0.0f);
}

}  // namespace
}  // namespace ganopc::nn
