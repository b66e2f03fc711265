#pragma once

#include "nn/module.hpp"

namespace srmac {

/// 2-D convolution (no bias — every conv here is followed by BatchNorm, as
/// in ResNet/VGG-BN). Forward and both backward GEMMs run through the
/// compute context. On a backend that runs the fused kernel
/// (MatmulBackend::runs_fused_kernel) each GEMM is one pass over quantized
/// activations: the forward and the input gradient run gemm_conv_pass (dY
/// as the panel of a 1x1 conv over itself), the weight gradient packs
/// cols^T straight from the input's codes and dispatches at once. Other
/// backends build a float im2col panel and call matmul. The panels live
/// in per-thread scratch shared by every conv, not in the layer.
class Conv2d : public Layer {
 public:
  Conv2d(int in_ch, int out_ch, int k, int stride = 1, int pad = -1);
  Tensor forward(const ComputeContext& ctx, const Tensor& x, bool training) override;
  Tensor backward(const ComputeContext& ctx, const Tensor& gout) override;
  void collect_params(std::vector<Param*>& out) override { out.push_back(&w_); }
  std::string name() const override { return "Conv2d"; }
  Param& weight() { return w_; }

  // Geometry accessors for the model compiler's lowering pass.
  int in_channels() const { return in_ch_; }
  int out_channels() const { return out_ch_; }
  int kernel() const { return k_; }
  int stride() const { return stride_; }
  int padding() const { return pad_; }

 private:
  int in_ch_, out_ch_, k_, stride_, pad_;
  Param w_;        // (out_ch, in_ch*k*k)
  Tensor x_cache_; // input needed for dW
};

/// Fully connected layer with bias.
class Linear : public Layer {
 public:
  Linear(int in_f, int out_f);
  Tensor forward(const ComputeContext& ctx, const Tensor& x, bool training) override;
  Tensor backward(const ComputeContext& ctx, const Tensor& gout) override;
  void collect_params(std::vector<Param*>& out) override {
    out.push_back(&w_);
    out.push_back(&b_);
  }
  std::string name() const override { return "Linear"; }
  Param& weight() { return w_; }
  Param& bias() { return b_; }
  int in_features() const { return in_f_; }
  int out_features() const { return out_f_; }

 private:
  int in_f_, out_f_;
  Param w_, b_;
  Tensor x_cache_;
};

/// Batch normalization over (N, H, W) per channel. Pointwise math stays in
/// FP32 (the paper quantizes GEMMs only). Forward and backward split by
/// whole channels across at most ctx.threads pool threads (kPointwiseGrain
/// elements a chunk); each channel keeps its double sums in serial order
/// and writes only its own planes, statistics and parameter-gradient slots.
class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(int ch, float momentum = 0.1f, float eps = 1e-5f);
  Tensor forward(const ComputeContext& ctx, const Tensor& x, bool training) override;
  Tensor backward(const ComputeContext& ctx, const Tensor& gout) override;
  void collect_params(std::vector<Param*>& out) override {
    out.push_back(&gamma_);
    out.push_back(&beta_);
  }
  std::string name() const override { return "BatchNorm2d"; }

  // Inference-math inputs for the model compiler's BN fold: the compiled
  // affine epilogue must reproduce forward()'s exact expression from these.
  int channels() const { return ch_; }
  float eps() const { return eps_; }
  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  int ch_;
  float momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  Tensor xhat_cache_, invstd_cache_;
  std::vector<int> in_shape_;
};

/// max(x, 0), with NaN and -0 mapped to +0. Forward (which writes the
/// output and, in training, the 0/1 mask in one pass) and backward split by
/// element range across at most ctx.threads pool threads
/// (kPointwiseGrain elements a chunk).
class ReLU : public Layer {
 public:
  Tensor forward(const ComputeContext& ctx, const Tensor& x, bool training) override;
  Tensor backward(const ComputeContext& ctx, const Tensor& gout) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor mask_;
};

class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(int k, int stride = -1);
  Tensor forward(const ComputeContext& ctx, const Tensor& x, bool training) override;
  Tensor backward(const ComputeContext& ctx, const Tensor& gout) override;
  std::string name() const override { return "MaxPool2d"; }
  int kernel() const { return k_; }
  int stride() const { return stride_; }

 private:
  int k_, stride_;
  Tensor argmax_;
  std::vector<int> in_shape_;
};

/// Global average pooling (N,C,H,W) -> (N,C).
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(const ComputeContext& ctx, const Tensor& x, bool training) override;
  Tensor backward(const ComputeContext& ctx, const Tensor& gout) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  std::vector<int> in_shape_;
};

class Flatten : public Layer {
 public:
  Tensor forward(const ComputeContext& ctx, const Tensor& x, bool training) override;
  Tensor backward(const ComputeContext& ctx, const Tensor& gout) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<int> in_shape_;
};

/// Softmax + cross-entropy head. forward_loss returns the mean loss and
/// caches softmax probabilities; backward_loss produces dlogits already
/// scaled by `loss_scale` (the dynamic loss-scaling hook of Sec. IV-A).
class SoftmaxCrossEntropy {
 public:
  float forward_loss(const Tensor& logits, const std::vector<int>& labels);
  Tensor backward_loss(float loss_scale) const;
  int correct(const Tensor& logits, const std::vector<int>& labels) const;

 private:
  Tensor probs_;
  std::vector<int> labels_;
};

}  // namespace srmac
