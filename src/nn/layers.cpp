#include "nn/layers.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "mac/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/thread_pool.hpp"

namespace srmac {

// -------------------------- WeightQuantCache -------------------------------

const std::vector<uint32_t>& WeightQuantCache::get(const Param& p,
                                                   const FpFormat& fmt,
                                                   bool transposed) {
  assert(p.value.ndim() == 2);
  const int rows = p.value.dim(0), cols = p.value.dim(1);
  Plane* plane = nullptr;
  for (Plane& pl : planes_) {
    if (pl.fmt == fmt && pl.transposed == transposed) {
      plane = &pl;
      break;
    }
  }
  if (!plane) {
    planes_.push_back(Plane{fmt, transposed, 0, nullptr, {}});
    plane = &planes_.back();  // deque: stable across later push_backs
  } else if (plane->version == p.version && plane->data == p.value.data()) {
    return plane->bits;
  }
  plane->version = p.version;
  plane->data = p.value.data();
  plane->bits.resize(static_cast<size_t>(rows) * cols);
  // The backward GEMMs reuse the same cache through the transposed plane.
  if (transposed)
    gemm_quantize_transposed(fmt, rows, cols, p.value.data(),
                             plane->bits.data());
  else
    gemm_quantize(fmt, rows, cols, p.value.data(), cols, plane->bits.data());
  return plane->bits;
}

// ------------------------------- Conv2d ------------------------------------

Conv2d::Conv2d(int in_ch, int out_ch, int k, int stride, int pad)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      k_(k),
      stride_(stride),
      pad_(pad < 0 ? k / 2 : pad) {
  w_.name = "conv_w";
  w_.value = Tensor({out_ch, in_ch * k * k});
  w_.grad = Tensor({out_ch, in_ch * k * k});
  w_.momentum = Tensor({out_ch, in_ch * k * k});
}

void Conv2d::build_cols(const ComputeContext& ctx, const Tensor& x, int oh,
                        int ow) {
  const int N = x.dim(0), H = x.dim(2), W = x.dim(3);
  const int K = in_ch_ * k_ * k_;
  const int64_t L = static_cast<int64_t>(oh) * ow;
  cols_.resize(static_cast<size_t>(K) * N * L);  // grows once, then reused
  // im2col writes each sample's rows directly into the batched panel
  // (row pitch N*L), so there is no per-sample staging copy; samples are
  // independent, so the batch splits across the pool.
  ThreadPool::global().parallel_for(
      0, N,
      [&](int64_t lo, int64_t hi) {
        for (int64_t n = lo; n < hi; ++n)
          im2col(x.data() + static_cast<size_t>(n) * in_ch_ * H * W, in_ch_,
                 H, W, k_, k_, stride_, pad_, cols_.data() + n * L,
                 /*row_stride=*/static_cast<int64_t>(N) * L);
      },
      ctx.threads);
}

Tensor Conv2d::forward(const ComputeContext& ctx, const Tensor& x,
                       bool training) {
  assert(x.ndim() == 4 && x.dim(1) == in_ch_);
  const int N = x.dim(0), H = x.dim(2), W = x.dim(3);
  const int oh = conv_out_dim(H, k_, stride_, pad_);
  const int ow = conv_out_dim(W, k_, stride_, pad_);
  const int K = in_ch_ * k_ * k_;
  const int L = oh * ow;

  if (training) x_cache_ = x;

  // One batched GEMM: cols_ is K x (N*L); out = W * cols_.
  build_cols(ctx, x, oh, ow);
  Tensor out_flat({out_ch_, N * L});
  if (ctx.bit_accurate()) {
    const auto& wq = wq_.get(w_, ctx.quant_fmt(), /*transposed=*/false);
    matmul_qa(ctx, out_ch_, N * L, K, wq.data(), cols_.data(),
              out_flat.data());
  } else {
    matmul(ctx, out_ch_, N * L, K, w_.value.data(), cols_.data(),
           out_flat.data());
  }

  // Reorder (out_ch, N, L) -> (N, out_ch, oh, ow).
  Tensor out({N, out_ch_, oh, ow});
  for (int c = 0; c < out_ch_; ++c)
    for (int n = 0; n < N; ++n)
      std::copy_n(out_flat.data() + (static_cast<size_t>(c) * N + n) * L, L,
                  out.data() + (static_cast<size_t>(n) * out_ch_ + c) * L);
  return out;
}

Tensor Conv2d::backward(const ComputeContext& ctx, const Tensor& gout) {
  const Tensor& x = x_cache_;
  const int N = x.dim(0), H = x.dim(2), W = x.dim(3);
  const int oh = gout.dim(2), ow = gout.dim(3);
  const int K = in_ch_ * k_ * k_;
  const int L = oh * ow;

  // Rebuild cols_ (recompute trades memory for cache footprint).
  build_cols(ctx, x, oh, ow);
  // gout as (out_ch, N*L). When the dW GEMM defers into a cross-layer
  // bucket (ctx.grad_batch), the reshaped gradient must outlive this call,
  // so it stages in the bucket's scratch instead of a local tensor.
  Tensor g_flat_store;
  float* g_flat;
  if (ctx.grad_batch) {
    g_flat = ctx.grad_batch->scratch(static_cast<size_t>(out_ch_) * N * L);
  } else {
    g_flat_store = Tensor({out_ch_, N * L});
    g_flat = g_flat_store.data();
  }
  for (int c = 0; c < out_ch_; ++c)
    for (int n = 0; n < N; ++n)
      std::copy_n(gout.data() + (static_cast<size_t>(n) * out_ch_ + c) * L, L,
                  g_flat + (static_cast<size_t>(c) * N + n) * L);

  // The two backward GEMMs — dW = gout * cols^T (weight gradient) and
  // gcols = W^T * gout (data gradient) — are independent. With a deferred
  // bucket the dW GEMM joins it (cols^T is materialized into the bucket at
  // add time) and the data gradient, which the serial gx chain needs now,
  // dispatches immediately; otherwise both go down as one gemm_batch
  // submission. Bit-identical every way — each item carries its own
  // pass/seed, scheduling is invisible to the bits.
  const ComputeContext ctx_gx = ctx.fork(2);
  Tensor gcols({K, N * L});
  MatmulBatch local(ctx);
  MatmulBatch& dw_sink = ctx.grad_batch ? *ctx.grad_batch : local;
  dw_sink.add_nt(ctx.fork(1).weight_grad(), out_ch_, K, N * L, g_flat,
                 cols_.data(), w_.grad.data(), /*accumulate=*/true);
  if (ctx_gx.bit_accurate()) {
    // The cached transposed weight plane; non-prequantized backends get it
    // decoded back losslessly by the dispatch.
    const auto& wqt = wq_.get(w_, ctx_gx.quant_fmt(), /*transposed=*/true);
    if (ctx.grad_batch)
      matmul_qa(ctx_gx, K, N * L, out_ch_, wqt.data(), g_flat, gcols.data());
    else
      local.add_qa(ctx_gx, K, N * L, out_ch_, wqt.data(), g_flat,
                   gcols.data());
  } else {
    if (ctx.grad_batch)
      matmul_tn(ctx_gx, K, N * L, out_ch_, w_.value.data(), g_flat,
                gcols.data());
    else
      local.add_tn(ctx_gx, K, N * L, out_ch_, w_.value.data(), g_flat,
                   gcols.data());
  }
  local.flush();
  // End of this layer's backward is a safe flush point for the deferred
  // bucket (our staged g_flat is no longer needed; every other pending
  // item's operands are layer members or batch-owned copies), so the
  // memory bound holds even when this conv is nested inside a composite
  // block the bucketing Sequential only sees as one child.
  if (ctx.grad_batch &&
      ctx.grad_batch->staged_floats() >= Sequential::kGradBucketFloats)
    ctx.grad_batch->flush();
  Tensor gx({N, in_ch_, H, W});  // zero-initialized: col2im accumulates
  ThreadPool::global().parallel_for(
      0, N,
      [&](int64_t lo, int64_t hi) {
        for (int64_t n = lo; n < hi; ++n)
          col2im_accumulate(gcols.data() + n * L, in_ch_, H, W, k_, k_,
                            stride_, pad_,
                            gx.data() + static_cast<size_t>(n) * in_ch_ * H * W,
                            /*row_stride=*/static_cast<int64_t>(N) * L);
      },
      ctx.threads);
  return gx;
}

// ------------------------------- Linear ------------------------------------

Linear::Linear(int in_f, int out_f) : in_f_(in_f), out_f_(out_f) {
  w_.name = "linear_w";
  w_.value = Tensor({out_f, in_f});
  w_.grad = Tensor({out_f, in_f});
  w_.momentum = Tensor({out_f, in_f});
  b_.name = "linear_b";
  b_.value = Tensor({out_f});
  b_.grad = Tensor({out_f});
  b_.momentum = Tensor({out_f});
  b_.decay = false;
}

Tensor Linear::forward(const ComputeContext& ctx, const Tensor& x,
                       bool training) {
  assert(x.ndim() == 2 && x.dim(1) == in_f_);
  const int N = x.dim(0);
  if (training) x_cache_ = x;
  Tensor out({N, out_f_});
  if (ctx.bit_accurate()) {
    // B = W^T from the cached transposed weight plane.
    const auto& wqt = wq_.get(w_, ctx.quant_fmt(), /*transposed=*/true);
    matmul_qb(ctx, N, out_f_, in_f_, x.data(), wqt.data(), out.data());
  } else {
    matmul_nt(ctx, N, out_f_, in_f_, x.data(), w_.value.data(), out.data());
  }
  for (int n = 0; n < N; ++n)
    for (int o = 0; o < out_f_; ++o) out.at(n, o) += b_.value[o];
  return out;
}

Tensor Linear::backward(const ComputeContext& ctx, const Tensor& gout) {
  const int N = gout.dim(0);
  // dW = gout^T * x ; db = column sums ; gx = gout * W. The two GEMMs are
  // independent: with a deferred bucket (ctx.grad_batch) the dW GEMM joins
  // it — add_tn copies gout^T into the bucket and x_cache_ is a member, so
  // both operands outlive this call — and gx dispatches immediately;
  // otherwise both submit as one gemm_batch. Bit-identical either way.
  for (int n = 0; n < N; ++n)
    for (int o = 0; o < out_f_; ++o) b_.grad[o] += gout.at(n, o);
  Tensor gx({N, in_f_});
  const ComputeContext ctx_gx = ctx.fork(2);
  MatmulBatch local(ctx);
  MatmulBatch& dw_sink = ctx.grad_batch ? *ctx.grad_batch : local;
  dw_sink.add_tn(ctx.fork(1).weight_grad(), out_f_, in_f_, N, gout.data(),
                 x_cache_.data(), w_.grad.data(), /*accumulate=*/true);
  if (ctx_gx.bit_accurate()) {
    // The cached weight plane; non-prequantized backends get it decoded
    // back losslessly by the dispatch.
    const auto& wq = wq_.get(w_, ctx_gx.quant_fmt(), /*transposed=*/false);
    if (ctx.grad_batch)
      matmul_qb(ctx_gx, N, in_f_, out_f_, gout.data(), wq.data(), gx.data());
    else
      local.add_qb(ctx_gx, N, in_f_, out_f_, gout.data(), wq.data(),
                   gx.data());
  } else {
    if (ctx.grad_batch)
      matmul(ctx_gx, N, in_f_, out_f_, gout.data(), w_.value.data(),
             gx.data());
    else
      local.add(ctx_gx, N, in_f_, out_f_, gout.data(), w_.value.data(),
                gx.data());
  }
  local.flush();
  // Safe flush point, as in Conv2d::backward: bounds the bucket's staged
  // memory regardless of how deeply this layer is nested.
  if (ctx.grad_batch &&
      ctx.grad_batch->staged_floats() >= Sequential::kGradBucketFloats)
    ctx.grad_batch->flush();
  return gx;
}

// ----------------------------- BatchNorm2d ---------------------------------

BatchNorm2d::BatchNorm2d(int ch, float momentum, float eps)
    : ch_(ch), momentum_(momentum), eps_(eps) {
  gamma_.name = "bn_gamma";
  gamma_.value = Tensor({ch}, 1.0f);
  gamma_.grad = Tensor({ch});
  gamma_.momentum = Tensor({ch});
  gamma_.decay = false;
  beta_.name = "bn_beta";
  beta_.value = Tensor({ch});
  beta_.grad = Tensor({ch});
  beta_.momentum = Tensor({ch});
  beta_.decay = false;
  running_mean_ = Tensor({ch});
  running_var_ = Tensor({ch}, 1.0f);
}

Tensor BatchNorm2d::forward(const ComputeContext&, const Tensor& x,
                            bool training) {
  assert(x.ndim() == 4 && x.dim(1) == ch_);
  const int N = x.dim(0), H = x.dim(2), W = x.dim(3);
  const int64_t per_ch = static_cast<int64_t>(N) * H * W;
  in_shape_ = x.shape();
  Tensor out(x.shape());
  if (training) {
    xhat_cache_ = Tensor(x.shape());
    invstd_cache_ = Tensor({ch_});
  }
  for (int c = 0; c < ch_; ++c) {
    double mean, var;
    if (training) {
      double sum = 0, sq = 0;
      for (int n = 0; n < N; ++n)
        for (int h = 0; h < H; ++h)
          for (int w = 0; w < W; ++w) {
            const double v = x.at(n, c, h, w);
            sum += v;
            sq += v * v;
          }
      mean = sum / static_cast<double>(per_ch);
      var = sq / static_cast<double>(per_ch) - mean * mean;
      if (var < 0) var = 0;
      running_mean_[c] = (1 - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(mean);
      running_var_[c] =
          (1 - momentum_) * running_var_[c] + momentum_ * static_cast<float>(var);
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const float invstd = static_cast<float>(1.0 / std::sqrt(var + eps_));
    if (training) invstd_cache_[c] = invstd;
    const float g = gamma_.value[c], b = beta_.value[c];
    for (int n = 0; n < N; ++n)
      for (int h = 0; h < H; ++h)
        for (int w = 0; w < W; ++w) {
          const float xh =
              (x.at(n, c, h, w) - static_cast<float>(mean)) * invstd;
          if (training) xhat_cache_.at(n, c, h, w) = xh;
          out.at(n, c, h, w) = g * xh + b;
        }
  }
  return out;
}

Tensor BatchNorm2d::backward(const ComputeContext&, const Tensor& gout) {
  const int N = in_shape_[0], H = in_shape_[2], W = in_shape_[3];
  const double m = static_cast<double>(N) * H * W;
  Tensor gx({N, ch_, H, W});
  for (int c = 0; c < ch_; ++c) {
    double sum_g = 0, sum_gx = 0;
    for (int n = 0; n < N; ++n)
      for (int h = 0; h < H; ++h)
        for (int w = 0; w < W; ++w) {
          const double g = gout.at(n, c, h, w);
          sum_g += g;
          sum_gx += g * xhat_cache_.at(n, c, h, w);
        }
    gamma_.grad[c] += static_cast<float>(sum_gx);
    beta_.grad[c] += static_cast<float>(sum_g);
    const double gam = gamma_.value[c], invstd = invstd_cache_[c];
    for (int n = 0; n < N; ++n)
      for (int h = 0; h < H; ++h)
        for (int w = 0; w < W; ++w) {
          const double g = gout.at(n, c, h, w);
          const double xh = xhat_cache_.at(n, c, h, w);
          gx.at(n, c, h, w) = static_cast<float>(
              gam * invstd * (g - sum_g / m - xh * sum_gx / m));
        }
  }
  return gx;
}

// -------------------------------- ReLU -------------------------------------

Tensor ReLU::forward(const ComputeContext&, const Tensor& x, bool training) {
  Tensor out = x;
  if (training) mask_ = Tensor(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (x[i] > 0) {
      if (training) mask_[i] = 1.0f;
    } else {
      out[i] = 0.0f;
    }
  }
  return out;
}

Tensor ReLU::backward(const ComputeContext&, const Tensor& gout) {
  Tensor gx = gout;
  for (int64_t i = 0; i < gx.numel(); ++i) gx[i] *= mask_[i];
  return gx;
}

// ------------------------------ MaxPool2d ----------------------------------

MaxPool2d::MaxPool2d(int k, int stride) : k_(k), stride_(stride < 0 ? k : stride) {}

Tensor MaxPool2d::forward(const ComputeContext&, const Tensor& x,
                          bool training) {
  const int N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const int oh = (H - k_) / stride_ + 1, ow = (W - k_) / stride_ + 1;
  in_shape_ = x.shape();
  Tensor out({N, C, oh, ow});
  if (training) argmax_ = Tensor({N, C, oh, ow});
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c)
      for (int y = 0; y < oh; ++y)
        for (int xo = 0; xo < ow; ++xo) {
          float best = -1e30f;
          int besti = 0;
          for (int i = 0; i < k_; ++i)
            for (int j = 0; j < k_; ++j) {
              const int iy = y * stride_ + i, ix = xo * stride_ + j;
              const float v = x.at(n, c, iy, ix);
              if (v > best) {
                best = v;
                besti = iy * W + ix;
              }
            }
          out.at(n, c, y, xo) = best;
          if (training) argmax_.at(n, c, y, xo) = static_cast<float>(besti);
        }
  return out;
}

Tensor MaxPool2d::backward(const ComputeContext&, const Tensor& gout) {
  const int N = in_shape_[0], C = in_shape_[1], H = in_shape_[2],
            W = in_shape_[3];
  Tensor gx({N, C, H, W});
  const int oh = gout.dim(2), ow = gout.dim(3);
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c)
      for (int y = 0; y < oh; ++y)
        for (int xo = 0; xo < ow; ++xo) {
          const int idx = static_cast<int>(argmax_.at(n, c, y, xo));
          gx.at(n, c, idx / W, idx % W) += gout.at(n, c, y, xo);
        }
  return gx;
}

// ---------------------------- GlobalAvgPool --------------------------------

Tensor GlobalAvgPool::forward(const ComputeContext&, const Tensor& x, bool) {
  const int N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  in_shape_ = x.shape();
  Tensor out({N, C});
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c) {
      double s = 0;
      for (int h = 0; h < H; ++h)
        for (int w = 0; w < W; ++w) s += x.at(n, c, h, w);
      out.at(n, c) = static_cast<float>(s / (H * W));
    }
  return out;
}

Tensor GlobalAvgPool::backward(const ComputeContext&, const Tensor& gout) {
  const int N = in_shape_[0], C = in_shape_[1], H = in_shape_[2],
            W = in_shape_[3];
  Tensor gx({N, C, H, W});
  const float inv = 1.0f / static_cast<float>(H * W);
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c) {
      const float g = gout.at(n, c) * inv;
      for (int h = 0; h < H; ++h)
        for (int w = 0; w < W; ++w) gx.at(n, c, h, w) = g;
    }
  return gx;
}

// ------------------------------- Flatten -----------------------------------

Tensor Flatten::forward(const ComputeContext&, const Tensor& x, bool) {
  in_shape_ = x.shape();
  const int N = x.dim(0);
  return x.reshaped({N, static_cast<int>(x.numel() / N)});
}

Tensor Flatten::backward(const ComputeContext&, const Tensor& gout) {
  return gout.reshaped(in_shape_);
}

// ------------------------- SoftmaxCrossEntropy -----------------------------

float SoftmaxCrossEntropy::forward_loss(const Tensor& logits,
                                        const std::vector<int>& labels) {
  const int N = logits.dim(0), C = logits.dim(1);
  probs_ = Tensor({N, C});
  labels_ = labels;
  double loss = 0;
  for (int n = 0; n < N; ++n) {
    float mx = -1e30f;
    for (int c = 0; c < C; ++c) mx = std::max(mx, logits.at(n, c));
    double z = 0;
    for (int c = 0; c < C; ++c) {
      const double e = std::exp(static_cast<double>(logits.at(n, c) - mx));
      probs_.at(n, c) = static_cast<float>(e);
      z += e;
    }
    for (int c = 0; c < C; ++c)
      probs_.at(n, c) = static_cast<float>(probs_.at(n, c) / z);
    loss -= std::log(std::max(1e-12, static_cast<double>(probs_.at(n, labels[n]))));
  }
  return static_cast<float>(loss / N);
}

Tensor SoftmaxCrossEntropy::backward_loss(float loss_scale) const {
  const int N = probs_.dim(0), C = probs_.dim(1);
  Tensor g({N, C});
  const float s = loss_scale / static_cast<float>(N);
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c)
      g.at(n, c) = s * (probs_.at(n, c) - (labels_[n] == c ? 1.0f : 0.0f));
  return g;
}

int SoftmaxCrossEntropy::correct(const Tensor& logits,
                                 const std::vector<int>& labels) const {
  const int N = logits.dim(0), C = logits.dim(1);
  int ok = 0;
  for (int n = 0; n < N; ++n) {
    int best = 0;
    for (int c = 1; c < C; ++c)
      if (logits.at(n, c) > logits.at(n, best)) best = c;
    if (best == labels[n]) ++ok;
  }
  return ok;
}

}  // namespace srmac
