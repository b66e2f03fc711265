#pragma once

#include <memory>

#include "nn/layers.hpp"

namespace srmac {

/// A ResNet basic block: conv3x3-BN-ReLU-conv3x3-BN + identity/projection
/// shortcut, final ReLU. Stride > 1 downsamples via the first conv and a
/// 1x1 projection shortcut.
class BasicBlock : public Layer {
 public:
  BasicBlock(int in_ch, int out_ch, int stride);
  Tensor forward(const ComputeContext& ctx, const Tensor& x, bool training) override;
  Tensor backward(const ComputeContext& ctx, const Tensor& gout) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return "BasicBlock"; }

  // Child accessors for the model compiler: the lowering pass replays
  // forward()'s child order and fork salts from these.
  Conv2d& conv1() { return conv1_; }
  Conv2d& conv2() { return conv2_; }
  BatchNorm2d& bn1() { return bn1_; }
  BatchNorm2d& bn2() { return bn2_; }
  bool has_projection() const { return project_; }
  Conv2d* proj() { return proj_.get(); }
  BatchNorm2d* proj_bn() { return proj_bn_.get(); }

 private:
  Conv2d conv1_, conv2_;
  BatchNorm2d bn1_, bn2_;
  ReLU relu1_, relu2_;
  bool project_;
  std::unique_ptr<Conv2d> proj_;
  std::unique_ptr<BatchNorm2d> proj_bn_;
};

/// A ResNet bottleneck block (1x1 reduce, 3x3, 1x1 expand), the ResNet-50
/// building block.
class BottleneckBlock : public Layer {
 public:
  BottleneckBlock(int in_ch, int mid_ch, int out_ch, int stride);
  Tensor forward(const ComputeContext& ctx, const Tensor& x, bool training) override;
  Tensor backward(const ComputeContext& ctx, const Tensor& gout) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return "BottleneckBlock"; }

  // Child accessors for the model compiler (as BasicBlock's).
  Conv2d& conv1() { return conv1_; }
  Conv2d& conv2() { return conv2_; }
  Conv2d& conv3() { return conv3_; }
  BatchNorm2d& bn1() { return bn1_; }
  BatchNorm2d& bn2() { return bn2_; }
  BatchNorm2d& bn3() { return bn3_; }
  bool has_projection() const { return project_; }
  Conv2d* proj() { return proj_.get(); }
  BatchNorm2d* proj_bn() { return proj_bn_.get(); }

 private:
  Conv2d conv1_, conv2_, conv3_;
  BatchNorm2d bn1_, bn2_, bn3_;
  ReLU relu1_, relu2_, relu3_;
  bool project_;
  std::unique_ptr<Conv2d> proj_;
  std::unique_ptr<BatchNorm2d> proj_bn_;
};

/// ResNet-20 for 32x32 inputs (the CIFAR-10 architecture of Sec. IV-A):
/// conv3x3(16) + 3 stages x 3 basic blocks (16/32/64) + GAP + FC(classes).
/// `width_mult` scales channel counts for the budget-reduced runs; 1.0 is
/// the paper's model (~0.27M parameters).
std::unique_ptr<Sequential> make_resnet20(int classes = 10,
                                          float width_mult = 1.0f);

/// A ResNet-50-style bottleneck network scaled for 32x32 inputs (stands in
/// for the paper's ResNet-50/Imagewoof experiment; see docs/ARCHITECTURE.md,
/// "Substitutions").
/// `blocks_per_stage` 3 gives the classic (3,4,6,3)-lite variant used here.
std::unique_ptr<Sequential> make_resnet50_small(int classes = 10,
                                                float width_mult = 1.0f);

}  // namespace srmac
