#pragma once

#include "nn/module.hpp"

namespace srmac {

/// 2-D convolution (no bias — every conv here is followed by BatchNorm, as
/// in ResNet/VGG-BN). Forward and both backward GEMMs run through the
/// compute context (im2col + matmul).
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
  /// Rebuilds cols_ (K x N*L) from x through im2col, reusing the member
  /// scratch buffers; parallel over the batch.
  void build_cols(const ComputeContext& ctx, const Tensor& x, int oh, int ow);

  int in_ch_, out_ch_, k_, stride_, pad_;
  Param w_;        // (out_ch, in_ch*k*k)
  Tensor x_cache_; // input needed for dW
  WeightQuantCache wq_;       // quantized weight planes (fwd + bwd formats)
  std::vector<float> cols_;   // im2col scratch, reused across calls
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
  WeightQuantCache wq_;  // quantized weight planes (fwd + bwd formats)
};

/// Batch normalization over (N, H, W) per channel. Pointwise math stays in
/// FP32 (the paper quantizes GEMMs only).
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
