#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace srmac {

/// A trainable parameter with its gradient and optimizer slot.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  Tensor momentum;
  bool decay = true;  ///< weight decay applies (off for BN scale/bias)

  /// Incremented by every writer of `value` (optimizer steps, init,
  /// checkpoint restore) so derived data can be rebuilt — the compiled
  /// model's quantized weight planes (CompiledModel::refresh).
  uint64_t version = 0;
  void bump() { ++version; }
};

/// Base class for layers with manual forward/backward. Layers cache what
/// they need for the backward pass internally; `backward` consumes the
/// gradient w.r.t. the output and returns the gradient w.r.t. the input,
/// accumulating parameter gradients into their `grad` tensors.
///
/// The ComputeContext decides which backend the layer's GEMMs run on — the
/// FP32 reference or a bit-accurate MAC emulation backend (both directions,
/// matching the paper: "all GEMM operations during training (FWD and BWD
/// passes) are performed using low-precision MAC units") — and its
/// QuantPolicy decides the per-pass (and, via for_layer, per-layer)
/// quantization formats.
class Layer {
 public:
  virtual ~Layer() = default;
  virtual Tensor forward(const ComputeContext& ctx, const Tensor& x,
                         bool training) = 0;
  virtual Tensor backward(const ComputeContext& ctx, const Tensor& gout) = 0;
  virtual void collect_params(std::vector<Param*>& out) { (void)out; }
  virtual std::string name() const = 0;
};

/// A plain sequential container (also the building block of the ResNet /
/// VGG graphs).
class Sequential : public Layer {
 public:
  Sequential() = default;
  void add(std::unique_ptr<Layer> l) { layers_.push_back(std::move(l)); }
  Tensor forward(const ComputeContext& ctx, const Tensor& x,
                 bool training) override {
    Tensor h = x;
    int salt = 0;
    for (auto& l : layers_)
      h = l->forward(ctx.fork(++salt).for_layer(l->name()), h, training);
    return h;
  }
  Tensor backward(const ComputeContext& ctx, const Tensor& gout) override {
    // Cross-layer weight-gradient bucketing: the layers' dW GEMMs are
    // deferred into one MatmulBatch and flushed in buckets of kGradBucket
    // problems, which the batch runs one per pool thread (a conv on the
    // fused kernel runs its dW pass at once instead). Bounded buckets
    // cap how long deferred operand copies (MatmulBatch::scratch) stay
    // alive. The data-gradient chain stays serial — only the independent
    // dW GEMMs defer — and per-item seeds make the bits identical to
    // per-layer dispatch. A Sequential nested under one that already
    // buckets just forwards the pointer.
    std::optional<MatmulBatch> bucket;
    ComputeContext c = ctx;
    if (!ctx.grad_batch) {
      bucket.emplace(ctx);
      c.grad_batch = &*bucket;
    }
    Tensor g = gout;
    int salt = static_cast<int>(layers_.size());
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      g = (*it)->backward(c.fork(1000 + salt--).for_layer((*it)->name()), g);
      if (bucket && (bucket->size() >= kGradBucket ||
                     bucket->staged_floats() >= kGradBucketFloats))
        bucket->flush();
    }
    if (bucket) bucket->flush();
    return g;
  }

  /// Deferred weight-gradient GEMMs per bucket flush; a handful keeps the
  /// pool threads fed without holding every layer's staged operands alive
  /// at once.
  static constexpr size_t kGradBucket = 4;

  /// Byte bound on the same bucket (as floats): on the float route
  /// (backends without the fused kernel) conv layers stage their im2col
  /// cols^T and reshaped gradient per deferred dW, which dwarfs the
  /// problem count as a memory measure — a bucket holding big planes
  /// flushes early so peak backward memory stays near the per-layer-flush
  /// baseline (one large conv stages ~a few MB; 16 MB ≈ a handful). On the
  /// fused kernel a conv runs its dW at once, and only a Linear's dW (a
  /// copied gout^T) reaches the bucket. The
  /// bound is enforced by Conv2d/Linear at the *end* of their own backward
  /// (the safe flush point: their staged operands are dead, everyone
  /// else's are layer members or batch-owned), so composite blocks this
  /// Sequential sees as one child cannot overshoot it; the check in the
  /// loop above is the coarse per-child backstop.
  static constexpr size_t kGradBucketFloats = (16u << 20) / sizeof(float);
  void collect_params(std::vector<Param*>& out) override {
    for (auto& l : layers_) l->collect_params(out);
  }
  std::string name() const override { return "Sequential"; }
  size_t size() const { return layers_.size(); }

  /// The i-th child, in the order forward() walks them — the introspection
  /// surface the model compiler lowers through (src/compile).
  Layer& child(size_t i) const { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace srmac
