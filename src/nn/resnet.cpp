#include "nn/resnet.hpp"

#include <algorithm>

namespace srmac {

namespace {
int scaled(int ch, float mult) { return std::max(4, static_cast<int>(ch * mult)); }
}  // namespace

// ----------------------------- BasicBlock ----------------------------------

BasicBlock::BasicBlock(int in_ch, int out_ch, int stride)
    : conv1_(in_ch, out_ch, 3, stride),
      conv2_(out_ch, out_ch, 3, 1),
      bn1_(out_ch),
      bn2_(out_ch),
      project_(stride != 1 || in_ch != out_ch) {
  if (project_) {
    proj_ = std::make_unique<Conv2d>(in_ch, out_ch, 1, stride, 0);
    proj_bn_ = std::make_unique<BatchNorm2d>(out_ch);
  }
}

Tensor BasicBlock::forward(const ComputeContext& ctx, const Tensor& x,
                           bool training) {
  Tensor h = conv1_.forward(ctx.fork(1), x, training);
  h = bn1_.forward(ctx, h, training);
  h = relu1_.forward(ctx, h, training);
  h = conv2_.forward(ctx.fork(2), h, training);
  h = bn2_.forward(ctx, h, training);
  if (project_) {
    const Tensor sc = proj_->forward(ctx.fork(3), x, training);
    add_inplace(h, proj_bn_->forward(ctx, sc, training), ctx.threads);
  } else {
    add_inplace(h, x, ctx.threads);
  }
  return relu2_.forward(ctx, h, training);
}

Tensor BasicBlock::backward(const ComputeContext& ctx, const Tensor& gout) {
  Tensor g = relu2_.backward(ctx, gout);
  // g splits into the residual branch and the shortcut.
  Tensor gb = bn2_.backward(ctx, g);
  gb = conv2_.backward(ctx.fork(2), gb);
  gb = relu1_.backward(ctx, gb);
  gb = bn1_.backward(ctx, gb);
  gb = conv1_.backward(ctx.fork(1), gb);
  if (project_) {
    const Tensor gs = proj_bn_->backward(ctx, g);
    add_inplace(gb, proj_->backward(ctx.fork(3), gs), ctx.threads);
  } else {
    add_inplace(gb, g, ctx.threads);
  }
  return gb;
}

void BasicBlock::collect_params(std::vector<Param*>& out) {
  conv1_.collect_params(out);
  bn1_.collect_params(out);
  conv2_.collect_params(out);
  bn2_.collect_params(out);
  if (project_) {
    proj_->collect_params(out);
    proj_bn_->collect_params(out);
  }
}

// --------------------------- BottleneckBlock -------------------------------

BottleneckBlock::BottleneckBlock(int in_ch, int mid_ch, int out_ch, int stride)
    : conv1_(in_ch, mid_ch, 1, 1, 0),
      conv2_(mid_ch, mid_ch, 3, stride),
      conv3_(mid_ch, out_ch, 1, 1, 0),
      bn1_(mid_ch),
      bn2_(mid_ch),
      bn3_(out_ch),
      project_(stride != 1 || in_ch != out_ch) {
  if (project_) {
    proj_ = std::make_unique<Conv2d>(in_ch, out_ch, 1, stride, 0);
    proj_bn_ = std::make_unique<BatchNorm2d>(out_ch);
  }
}

Tensor BottleneckBlock::forward(const ComputeContext& ctx, const Tensor& x,
                                bool training) {
  Tensor h = conv1_.forward(ctx.fork(1), x, training);
  h = bn1_.forward(ctx, h, training);
  h = relu1_.forward(ctx, h, training);
  h = conv2_.forward(ctx.fork(2), h, training);
  h = bn2_.forward(ctx, h, training);
  h = relu2_.forward(ctx, h, training);
  h = conv3_.forward(ctx.fork(3), h, training);
  h = bn3_.forward(ctx, h, training);
  if (project_) {
    const Tensor sc = proj_->forward(ctx.fork(4), x, training);
    add_inplace(h, proj_bn_->forward(ctx, sc, training), ctx.threads);
  } else {
    add_inplace(h, x, ctx.threads);
  }
  return relu3_.forward(ctx, h, training);
}

Tensor BottleneckBlock::backward(const ComputeContext& ctx,
                                 const Tensor& gout) {
  Tensor g = relu3_.backward(ctx, gout);
  Tensor gb = bn3_.backward(ctx, g);
  gb = conv3_.backward(ctx.fork(3), gb);
  gb = relu2_.backward(ctx, gb);
  gb = bn2_.backward(ctx, gb);
  gb = conv2_.backward(ctx.fork(2), gb);
  gb = relu1_.backward(ctx, gb);
  gb = bn1_.backward(ctx, gb);
  gb = conv1_.backward(ctx.fork(1), gb);
  if (project_) {
    const Tensor gs = proj_bn_->backward(ctx, g);
    add_inplace(gb, proj_->backward(ctx.fork(4), gs), ctx.threads);
  } else {
    add_inplace(gb, g, ctx.threads);
  }
  return gb;
}

void BottleneckBlock::collect_params(std::vector<Param*>& out) {
  conv1_.collect_params(out);
  bn1_.collect_params(out);
  conv2_.collect_params(out);
  bn2_.collect_params(out);
  conv3_.collect_params(out);
  bn3_.collect_params(out);
  if (project_) {
    proj_->collect_params(out);
    proj_bn_->collect_params(out);
  }
}

// ------------------------------ factories ----------------------------------

std::unique_ptr<Sequential> make_resnet20(int classes, float width_mult) {
  auto net = std::make_unique<Sequential>();
  const int c1 = scaled(16, width_mult), c2 = scaled(32, width_mult),
            c3 = scaled(64, width_mult);
  net->add(std::make_unique<Conv2d>(3, c1, 3, 1));
  net->add(std::make_unique<BatchNorm2d>(c1));
  net->add(std::make_unique<ReLU>());
  for (int i = 0; i < 3; ++i)
    net->add(std::make_unique<BasicBlock>(c1, c1, 1));
  net->add(std::make_unique<BasicBlock>(c1, c2, 2));
  for (int i = 0; i < 2; ++i)
    net->add(std::make_unique<BasicBlock>(c2, c2, 1));
  net->add(std::make_unique<BasicBlock>(c2, c3, 2));
  for (int i = 0; i < 2; ++i)
    net->add(std::make_unique<BasicBlock>(c3, c3, 1));
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(c3, classes));
  return net;
}

std::unique_ptr<Sequential> make_resnet50_small(int classes, float width_mult) {
  auto net = std::make_unique<Sequential>();
  const int c0 = scaled(16, width_mult);
  const int mids[3] = {scaled(16, width_mult), scaled(32, width_mult),
                       scaled(64, width_mult)};
  const int blocks[3] = {3, 4, 3};  // (3,4,6,3)-lite for 32x32 inputs
  net->add(std::make_unique<Conv2d>(3, c0, 3, 1));
  net->add(std::make_unique<BatchNorm2d>(c0));
  net->add(std::make_unique<ReLU>());
  int in_ch = c0;
  for (int s = 0; s < 3; ++s) {
    const int mid = mids[s], out = mid * 4;
    for (int b = 0; b < blocks[s]; ++b) {
      const int stride = (b == 0 && s > 0) ? 2 : 1;
      net->add(std::make_unique<BottleneckBlock>(in_ch, mid, out, stride));
      in_ch = out;
    }
  }
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(in_ch, classes));
  return net;
}

}  // namespace srmac
