// Finite-difference gradient checks for every layer (FP32 path) — the
// correctness bedrock under the low-precision training experiments.
#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>

#include "nn/init.hpp"
#include "nn/resnet.hpp"
#include "nn/vgg.hpp"
#include "rng/xoshiro.hpp"

namespace srmac {
namespace {

Tensor randn(const std::vector<int>& shape, Xoshiro256& rng, float s = 1.0f) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.normal() * s);
  return t;
}

// Scalar objective: 0.5 * sum(out^2); dL/dout = out.
float objective(const Tensor& out) {
  double s = 0;
  for (int64_t i = 0; i < out.numel(); ++i)
    s += 0.5 * static_cast<double>(out[i]) * out[i];
  return static_cast<float>(s);
}

// Checks dL/dx of `layer` against central differences.
void check_input_grad(Layer& layer, const Tensor& x0, float tol = 2e-2f,
                      int probes = 24, float eps = 1e-2f) {
  const ComputeContext ctx = ComputeContext::fp32();
  Tensor out = layer.forward(ctx, x0, true);
  Tensor gout = out;  // dL/dout = out for the quadratic objective
  Tensor gx = layer.backward(ctx, gout);
  ASSERT_TRUE(gx.same_shape(x0));

  Xoshiro256 pick(99);
  for (int t = 0; t < probes; ++t) {
    const int64_t i = static_cast<int64_t>(pick.below(x0.numel()));
    Tensor xp = x0, xm = x0;
    xp[i] += eps;
    xm[i] -= eps;
    const float lp = objective(layer.forward(ctx, xp, true));
    const float lm = objective(layer.forward(ctx, xm, true));
    const float fd = (lp - lm) / (2 * eps);
    EXPECT_NEAR(gx[i], fd, tol * std::max(1.0f, std::fabs(fd))) << "i=" << i;
  }
  // Restore cached state for potential later use.
  layer.forward(ctx, x0, true);
}

// Checks parameter gradients against central differences.
void check_param_grads(Layer& layer, const Tensor& x0, float tol = 2e-2f,
                       int probes = 16) {
  const ComputeContext ctx = ComputeContext::fp32();
  std::vector<Param*> params;
  layer.collect_params(params);
  ASSERT_FALSE(params.empty());
  for (Param* p : params) p->grad.zero();
  Tensor out = layer.forward(ctx, x0, true);
  layer.backward(ctx, out);

  Xoshiro256 pick(7);
  const float eps = 1e-2f;
  for (Param* p : params) {
    for (int t = 0; t < probes; ++t) {
      const int64_t i = static_cast<int64_t>(pick.below(p->value.numel()));
      const float keep = p->value[i];
      p->value[i] = keep + eps;
      const float lp = objective(layer.forward(ctx, x0, true));
      p->value[i] = keep - eps;
      const float lm = objective(layer.forward(ctx, x0, true));
      p->value[i] = keep;
      const float fd = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p->grad[i], fd, tol * std::max(1.0f, std::fabs(fd)))
          << p->name << " i=" << i;
    }
  }
}

TEST(GradCheck, Conv2dInputAndWeights) {
  Xoshiro256 rng(1);
  Conv2d conv(3, 4, 3, 1);
  he_init(conv, 11);
  const Tensor x = randn({2, 3, 6, 6}, rng);
  check_input_grad(conv, x);
  check_param_grads(conv, x);
}

TEST(GradCheck, Conv2dStride2) {
  Xoshiro256 rng(2);
  Conv2d conv(2, 3, 3, 2);
  he_init(conv, 12);
  const Tensor x = randn({2, 2, 7, 7}, rng);
  check_input_grad(conv, x);
  check_param_grads(conv, x);
}

TEST(GradCheck, Conv2d1x1Projection) {
  Xoshiro256 rng(3);
  Conv2d conv(4, 8, 1, 2, 0);
  he_init(conv, 13);
  const Tensor x = randn({2, 4, 6, 6}, rng);
  check_input_grad(conv, x);
}

TEST(GradCheck, Linear) {
  Xoshiro256 rng(4);
  Linear lin(10, 7);
  he_init(lin, 14);
  const Tensor x = randn({5, 10}, rng);
  check_input_grad(lin, x);
  check_param_grads(lin, x);
}

TEST(GradCheck, BatchNorm) {
  Xoshiro256 rng(5);
  BatchNorm2d bn(3);
  const Tensor x = randn({4, 3, 5, 5}, rng, 2.0f);
  check_input_grad(bn, x, 5e-2f);
  check_param_grads(bn, x, 5e-2f);
}

TEST(GradCheck, ReLU) {
  Xoshiro256 rng(6);
  ReLU relu;
  const Tensor x = randn({3, 4, 5, 5}, rng);
  check_input_grad(relu, x);
}

TEST(GradCheck, MaxPool) {
  // Finite differences only make sense away from argmax ties: use distinct
  // values with gaps comfortably larger than the probe step.
  Xoshiro256 rng(7);
  Tensor x({2, 3, 6, 6});
  std::vector<int> perm(static_cast<size_t>(x.numel()));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
  for (size_t i = perm.size() - 1; i > 0; --i)
    std::swap(perm[i], perm[rng.below(i + 1)]);
  for (int64_t i = 0; i < x.numel(); ++i)
    x[i] = 0.05f * perm[static_cast<size_t>(i)] - 2.0f;
  MaxPool2d pool(2);
  check_input_grad(pool, x, 5e-2f, 24, 1e-3f);
}

TEST(Geometry, BadStrideAndWindowsWiderThanTheInputThrow) {
  EXPECT_THROW(Conv2d(1, 2, 3, /*stride=*/0), std::invalid_argument);
  EXPECT_THROW(MaxPool2d(2, /*stride=*/0), std::invalid_argument);
  Xoshiro256 rng(10);
  const Tensor x = randn({1, 1, 2, 2}, rng);
  // oh = (2 - 3) / 2 + 1 truncates to 1; the window reads past the input.
  Conv2d conv(1, 2, 3, /*stride=*/2, /*pad=*/0);
  EXPECT_THROW(conv.forward(ComputeContext::fp32(), x, false),
               std::invalid_argument);
  MaxPool2d pool(3);
  EXPECT_THROW(pool.forward(ComputeContext::fp32(), x, false),
               std::invalid_argument);
}

TEST(GradCheck, GlobalAvgPool) {
  Xoshiro256 rng(8);
  GlobalAvgPool gap;
  const Tensor x = randn({2, 4, 5, 5}, rng);
  check_input_grad(gap, x);
}

TEST(GradCheck, BasicBlockEndToEnd) {
  Xoshiro256 rng(9);
  BasicBlock block(4, 8, 2);
  he_init(block, 15);
  const Tensor x = randn({2, 4, 8, 8}, rng);
  check_input_grad(block, x, 5e-2f, 16);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Xoshiro256 rng(10);
  SoftmaxCrossEntropy head;
  Tensor logits = randn({4, 6}, rng);
  std::vector<int> labels = {0, 3, 5, 2};
  head.forward_loss(logits, labels);
  Tensor g = head.backward_loss(1.0f);
  const float eps = 1e-3f;
  for (int n = 0; n < 4; ++n)
    for (int c = 0; c < 6; ++c) {
      Tensor lp = logits, lm = logits;
      lp.at(n, c) += eps;
      lm.at(n, c) -= eps;
      SoftmaxCrossEntropy h2;
      const float fp = h2.forward_loss(lp, labels);
      const float fm = h2.forward_loss(lm, labels);
      EXPECT_NEAR(g.at(n, c), (fp - fm) / (2 * eps), 1e-3);
    }
}

TEST(Models, ResNet20ShapesAndParamCount) {
  auto net = make_resnet20(10, 1.0f);
  he_init(*net, 20);
  // The CIFAR ResNet-20 has ~0.27M parameters.
  const int64_t n = param_count(*net);
  EXPECT_GT(n, 250000);
  EXPECT_LT(n, 300000);
  Xoshiro256 rng(21);
  const Tensor x = randn({2, 3, 32, 32}, rng);
  Tensor out = net->forward(ComputeContext::fp32(), x, false);
  ASSERT_EQ(out.ndim(), 2);
  EXPECT_EQ(out.dim(0), 2);
  EXPECT_EQ(out.dim(1), 10);
}

TEST(Models, Vgg16ShapesAndParamCount) {
  auto net = make_vgg16(10, 1.0f);
  he_init(*net, 22);
  const int64_t n = param_count(*net);
  EXPECT_GT(n, 14000000);  // VGG16-BN conv stack ~14.7M at width 1.0
  Xoshiro256 rng(23);
  const Tensor x = randn({1, 3, 32, 32}, rng);
  Tensor out = net->forward(ComputeContext::fp32(), x, false);
  EXPECT_EQ(out.dim(1), 10);
}

TEST(Models, ResNet50SmallForwardBackward) {
  auto net = make_resnet50_small(10, 0.5f);
  he_init(*net, 24);
  Xoshiro256 rng(25);
  const Tensor x = randn({2, 3, 16, 16}, rng);
  Tensor out = net->forward(ComputeContext::fp32(), x, true);
  EXPECT_EQ(out.dim(1), 10);
  Tensor g = out;
  Tensor gx = net->backward(ComputeContext::fp32(), g);
  EXPECT_TRUE(gx.same_shape(x));
}

}  // namespace
}  // namespace srmac
