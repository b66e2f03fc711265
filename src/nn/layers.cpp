#include "nn/layers.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mac/gemm.hpp"
#include "mac/mac_kernel.hpp"
#include "tensor/im2col.hpp"
#include "util/thread_pool.hpp"

namespace srmac {

// ------------------------------- Conv2d ------------------------------------

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Scratch of the conv passes, shared by every Conv2d the calling thread
/// runs: each buffer grows to the largest pass once and is then reused, so
/// no layer keeps a panel between calls and a step allocates none. A
/// pass's pool tasks write disjoint slices of it.
struct ConvScratch {
  std::vector<uint32_t> codes, dy, a, bt;  ///< panel / dW's dY / A codes,
                                           ///< packed B panel
  std::vector<float> c, cols;  ///< GEMM output, float im2col panel
};
thread_local ConvScratch t_scratch;

template <class T>
T* grown(std::vector<T>& v, int64_t n) {
  if (v.size() < static_cast<size_t>(n)) {
    v = {};  // the old block goes first, so the two never coexist
    v.resize(static_cast<size_t>(n));
  }
  return v.data();
}

/// Calls f(sample, column within the sample, panel column, count) over
/// panel columns [lo, hi) in stretches that stay inside one sample.
template <class F>
void for_sample_runs(int64_t lo, int64_t hi, int L, F&& f) {
  for (int64_t j = lo; j < hi;) {
    const int64_t s = j / L, t = j % L;
    const int64_t n = std::min<int64_t>(hi - j, L - t);
    f(s, t, j, n);
    j += n;
  }
}

/// Records one fused conv GEMM of M x N x K MAC steps begun at `t0` that
/// quantized `codes` values.
void record_pass(const ComputeContext& ctx, const MacConfig& cfg, int M,
                 int N, int K, int64_t codes, double t0) {
  if (!ctx.telemetry) return;
  ctx.telemetry->record_gemm(ctx.backend->name(), M, N, K, now_s() - t0);
  ctx.telemetry->record_quantize(static_cast<uint64_t>(codes), cfg.mul_fmt);
}

ConvPanelShape conv_panel(const Conv2d& conv, const Tensor& x) {
  const int H = x.dim(2), W = x.dim(3), k = conv.kernel();
  const int s = conv.stride(), pad = conv.padding();
  return {x.dim(0), conv.in_channels(), H, W, k, s, pad,
          conv_out_dim(H, k, s, pad), conv_out_dim(W, k, s, pad)};
}

/// One conv GEMM of the training step on the fused kernel: quantizes the
/// panel's activations `src` and the M x p.K() weight operand (`w`, or the
/// transpose of the p.K() x M `w`) in ctx's format, and runs
/// gemm_conv_pass into C (M x p.N()) with the batch-wide seeds matmul
/// would use.
void fused_conv_gemm(const ComputeContext& ctx, const ConvPanelShape& p,
                     int M, const float* w, bool transposed, const float* src,
                     float* C,
                     const std::function<void(int64_t, int64_t)>& finish) {
  ConvScratch& s = t_scratch;
  const MacConfig cfg = ctx.mac_config().normalized();
  const FusedMacKernel kernel(cfg);
  const double t0 = ctx.telemetry ? now_s() : 0.0;
  const int G = kernel.group_width(), K = p.K(), N = static_cast<int>(p.N());
  const int in_n = p.C * p.H * p.W;
  uint32_t* a = grown(s.a, static_cast<int64_t>(M) * K);
  if (transposed)
    gemm_quantize_transposed(cfg.mul_fmt, K, M, w, a, ctx.threads);
  else
    gemm_quantize(cfg.mul_fmt, M, K, w, K, a, ctx.threads);
  uint32_t* codes = grown(s.codes, static_cast<int64_t>(p.batch) * in_n);
  gemm_quantize(cfg.mul_fmt, p.batch, in_n, src, in_n, codes, ctx.threads);
  gemm_conv_pass(kernel, p, codes, M, a, ctx.seed, /*seed_col_period=*/0,
                 ctx.threads,
                 grown(s.bt, static_cast<int64_t>(N + G - 1) / G * G * K), C,
                 finish);
  record_pass(ctx, cfg, M, N, K,
              static_cast<int64_t>(M) * K +
                  static_cast<int64_t>(p.batch) * in_n,
              t0);
}

/// dW += dY * cols^T on the fused kernel for the conv `p` over the input
/// `x`, with dY = `gout` (N, M, oh, ow): `x` requantized in this pass's
/// format (so HFP8 and layer rules need no other path), dY's codes
/// reordered into M rows of N*L, cols^T packed straight from the input
/// codes with its groups over the K taps, then the chains split by (row,
/// tap group).
void fused_weight_grad(const ComputeContext& ctx, const ConvPanelShape& p,
                       int M, const float* x, const float* gout,
                       float* grad) {
  ConvScratch& s = t_scratch;
  const MacConfig cfg = ctx.mac_config().normalized();
  const FusedMacKernel kernel(cfg);
  const int G = kernel.group_width(), K = p.K(), L = p.L();
  const int NL = static_cast<int>(p.N()), in_n = p.C * p.H * p.W;
  const double t0 = ctx.telemetry ? now_s() : 0.0;
  uint32_t* xq = grown(s.codes, static_cast<int64_t>(p.batch) * in_n);
  gemm_quantize(cfg.mul_fmt, p.batch, in_n, x, in_n, xq, ctx.threads);
  uint32_t* dy = grown(s.dy, static_cast<int64_t>(M) * NL);
  gemm_quantize(cfg.mul_fmt, p.batch, M * L, gout, M * L, dy, ctx.threads);
  const int64_t groups = (K + G - 1) / G;
  uint32_t* a = grown(s.a, static_cast<int64_t>(M) * NL);
  uint32_t* bt = grown(s.bt, groups * G * NL);
  const int threads = gemm_mac_threads(M, K, NL, ctx.threads);
  ThreadPool::global().parallel_for(
      0, NL,
      [&](int64_t lo, int64_t hi) {
        for_sample_runs(lo, hi, L, [&](int64_t n, int64_t t, int64_t j,
                                       int64_t len) {
          for (int o = 0; o < M; ++o)
            std::copy_n(dy + (n * M + o) * L + t, len, a + o * NL + j);
        });
        gemm_pack_conv_taps(p, G, xq, lo, hi, bt);
      },
      threads, /*grain=*/64);
  // Task t runs row t % M of tap group t / M, so neighbouring tasks share
  // a group's panel.
  ThreadPool::global().parallel_for(
      0, groups * M,
      [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t)
          gemm_chain_groups(kernel, t % M, t % M + 1, t / M, t / M + 1, K, NL,
                            a, NL, bt, grad, K, /*accumulate=*/true, ctx.seed,
                            /*seed_row_period=*/0, /*seed_col_period=*/0);
      },
      threads);
  record_pass(ctx, cfg, M, K, NL,
              static_cast<int64_t>(M) * NL +
                  static_cast<int64_t>(p.batch) * in_n,
              t0);
}

/// im2col of the batch into `cols` (K x N*L, row pitch N*L), parallel over
/// the batch: the float route's B operand.
void im2col_batch(const ComputeContext& ctx, const ConvPanelShape& p,
                  const float* x, float* cols) {
  ThreadPool::global().parallel_for(
      0, p.batch,
      [&](int64_t lo, int64_t hi) {
        for (int64_t n = lo; n < hi; ++n)
          im2col(x + n * p.C * p.H * p.W, p.C, p.H, p.W, p.k, p.k, p.stride,
                 p.pad, cols + n * p.L(), /*row_stride=*/p.N());
      },
      ctx.threads);
}

}  // namespace

Conv2d::Conv2d(int in_ch, int out_ch, int k, int stride, int pad)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      k_(k),
      stride_(stride),
      pad_(pad < 0 ? k / 2 : pad) {
  if (stride <= 0)
    throw std::invalid_argument("Conv2d stride must be > 0, got " +
                                std::to_string(stride));
  w_.name = "conv_w";
  w_.value = Tensor({out_ch, in_ch * k * k});
  w_.grad = Tensor({out_ch, in_ch * k * k});
  w_.momentum = Tensor({out_ch, in_ch * k * k});
}

Tensor Conv2d::forward(const ComputeContext& ctx, const Tensor& x,
                       bool training) {
  assert(x.ndim() == 4 && x.dim(1) == in_ch_);
  const ConvPanelShape p = conv_panel(*this, x);
  const int N = p.batch, K = p.K(), L = p.L(), NL = N * L;
  if (training) x_cache_ = x;
  Tensor out({N, out_ch_, p.oh, p.ow});
  float* c = grown(t_scratch.c, static_cast<int64_t>(out_ch_) * NL);
  // One batched GEMM, W * cols over the K x (N*L) panel, then the
  // (out_ch, N, L) -> (N, out_ch, L) reorder. On the fused kernel it is
  // one pass from the input codes whose tasks reorder their own columns.
  const auto reorder = [&](int64_t lo, int64_t hi) {
    for_sample_runs(lo, hi, L, [&](int64_t n, int64_t t, int64_t j,
                                   int64_t len) {
      for (int o = 0; o < out_ch_; ++o)
        std::copy_n(c + o * NL + j, len,
                    out.data() + (n * out_ch_ + o) * L + t);
    });
  };
  if (ctx.backend->runs_fused_kernel()) {
    fused_conv_gemm(ctx, p, out_ch_, w_.value.data(), /*transposed=*/false,
                    x.data(), c, reorder);
    return out;
  }
  float* cols = grown(t_scratch.cols, static_cast<int64_t>(K) * NL);
  im2col_batch(ctx, p, x.data(), cols);
  matmul(ctx, out_ch_, NL, K, w_.value.data(), cols, c);
  reorder(0, NL);
  return out;
}

Tensor Conv2d::backward(const ComputeContext& ctx, const Tensor& gout) {
  const Tensor& x = x_cache_;
  const ConvPanelShape p = conv_panel(*this, x);
  const int N = p.batch, K = p.K(), L = p.L(), NL = N * L;
  // The two GEMMs, dW = gout * cols^T (accumulated into w_.grad) and
  // gcols = W^T * gout, are independent; each carries its own pass and
  // seed, so neither their order nor where dW runs moves a bit.
  const ComputeContext ctx_dw = ctx.fork(1).weight_grad();
  const ComputeContext ctx_dx = ctx.fork(2);
  float* gcols = grown(t_scratch.c, static_cast<int64_t>(K) * NL);
  if (ctx.backend->runs_fused_kernel()) {
    fused_weight_grad(ctx_dw, p, out_ch_, x.data(), gout.data(),
                      w_.grad.data());
    // dX: gout is the panel of a 1x1 conv over itself.
    fused_conv_gemm(ctx_dx, {N, out_ch_, p.oh, p.ow, 1, 1, 0, p.oh, p.ow}, K,
                    w_.value.data(), /*transposed=*/true, gout.data(), gcols,
                    nullptr);
  } else {
    // gout as (out_ch, N*L). When the dW GEMM defers into a cross-layer
    // bucket (ctx.grad_batch), the reshaped gradient must outlive this
    // call, so it stages in the bucket's scratch (and add_nt copies
    // cols^T into the bucket).
    const size_t g_n = static_cast<size_t>(out_ch_) * NL;
    std::vector<float> g_store(ctx.grad_batch ? 0 : g_n);
    float* g_flat =
        ctx.grad_batch ? ctx.grad_batch->scratch(g_n) : g_store.data();
    for (int o = 0; o < out_ch_; ++o)
      for (int n = 0; n < N; ++n)
        std::copy_n(gout.data() + (static_cast<size_t>(n) * out_ch_ + o) * L,
                    L, g_flat + (static_cast<size_t>(o) * N + n) * L);
    float* cols = grown(t_scratch.cols, static_cast<int64_t>(K) * NL);
    im2col_batch(ctx, p, x.data(), cols);
    if (ctx.grad_batch)
      ctx.grad_batch->add_nt(ctx_dw, out_ch_, K, NL, g_flat, cols,
                             w_.grad.data(), /*accumulate=*/true);
    else
      matmul_nt(ctx_dw, out_ch_, K, NL, g_flat, cols, w_.grad.data(),
                /*accumulate=*/true);
    matmul_tn(ctx_dx, K, NL, out_ch_, w_.value.data(), g_flat, gcols);
    // End of this layer's backward is a safe flush point for the deferred
    // bucket (our staged g_flat is no longer needed; every other pending
    // item's operands are layer members or batch-owned copies), so the
    // memory bound holds even when this conv is nested inside a composite
    // block the bucketing Sequential only sees as one child.
    if (ctx.grad_batch &&
        ctx.grad_batch->staged_floats() >= Sequential::kGradBucketFloats)
      ctx.grad_batch->flush();
  }
  Tensor gx({N, in_ch_, p.H, p.W});  // zero-initialized: col2im accumulates
  ThreadPool::global().parallel_for(
      0, N,
      [&](int64_t lo, int64_t hi) {
        for (int64_t n = lo; n < hi; ++n)
          col2im_accumulate(gcols + n * L, in_ch_, p.H, p.W, k_, k_, stride_,
                            pad_, gx.data() + n * in_ch_ * p.H * p.W,
                            /*row_stride=*/NL);
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
  matmul_nt(ctx, N, out_f_, in_f_, x.data(), w_.value.data(), out.data());
  for (int n = 0; n < N; ++n)
    for (int o = 0; o < out_f_; ++o) out.at(n, o) += b_.value[o];
  return out;
}

Tensor Linear::backward(const ComputeContext& ctx, const Tensor& gout) {
  const int N = gout.dim(0);
  // dW = gout^T * x ; db = column sums ; gx = gout * W. The two GEMMs are
  // independent: with a deferred bucket (ctx.grad_batch) the dW GEMM joins
  // it — add_tn copies gout^T into the bucket and x_cache_ is a member, so
  // both operands outlive this call — and otherwise dispatches at once; gx
  // always dispatches at once. Bit-identical either way.
  for (int n = 0; n < N; ++n)
    for (int o = 0; o < out_f_; ++o) b_.grad[o] += gout.at(n, o);
  const ComputeContext ctx_dw = ctx.fork(1).weight_grad();
  if (ctx.grad_batch)
    ctx.grad_batch->add_tn(ctx_dw, out_f_, in_f_, N, gout.data(),
                           x_cache_.data(), w_.grad.data(),
                           /*accumulate=*/true);
  else
    matmul_tn(ctx_dw, out_f_, in_f_, N, gout.data(), x_cache_.data(),
              w_.grad.data(), /*accumulate=*/true);
  Tensor gx({N, in_f_});
  matmul(ctx.fork(2), N, in_f_, out_f_, gout.data(), w_.value.data(),
         gx.data());
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

namespace {
/// Channels per pool chunk for per-channel work over `per_ch` elements
/// each: enough to carry kPointwiseGrain elements.
int64_t channel_grain(int64_t per_ch) {
  return (kPointwiseGrain + per_ch - 1) / std::max<int64_t>(1, per_ch);
}
}  // namespace

Tensor BatchNorm2d::forward(const ComputeContext& ctx, const Tensor& x,
                            bool training) {
  assert(x.ndim() == 4 && x.dim(1) == ch_);
  const int N = x.dim(0);
  const int64_t HW = static_cast<int64_t>(x.dim(2)) * x.dim(3);
  const int64_t per_ch = N * HW;
  in_shape_ = x.shape();
  Tensor out(x.shape());
  if (training) {
    xhat_cache_ = Tensor(x.shape());
    invstd_cache_ = Tensor({ch_});
  }
  const float* xp = x.data();
  float* op = out.data();
  float* xhp = training ? xhat_cache_.data() : nullptr;
  // Each channel reads and writes only its own planes and slots, so the
  // channels split across the pool with every sum in its serial order.
  ThreadPool::global().parallel_for(
      0, ch_,
      [&](int64_t lo, int64_t hi) {
        for (int64_t c = lo; c < hi; ++c) {
          double mean, var;
          if (training) {
            double sum = 0, sq = 0;
            for (int n = 0; n < N; ++n) {
              const int64_t at = (n * ch_ + c) * HW;
              for (int64_t i = 0; i < HW; ++i) {
                const double v = xp[at + i];
                sum += v;
                sq += v * v;
              }
            }
            mean = sum / static_cast<double>(per_ch);
            var = sq / static_cast<double>(per_ch) - mean * mean;
            if (var < 0) var = 0;
            running_mean_[c] = (1 - momentum_) * running_mean_[c] +
                               momentum_ * static_cast<float>(mean);
            running_var_[c] = (1 - momentum_) * running_var_[c] +
                              momentum_ * static_cast<float>(var);
          } else {
            mean = running_mean_[c];
            var = running_var_[c];
          }
          const float mu = static_cast<float>(mean);
          const float invstd =
              static_cast<float>(1.0 / std::sqrt(var + eps_));
          if (training) invstd_cache_[c] = invstd;
          const float g = gamma_.value[c], b = beta_.value[c];
          for (int n = 0; n < N; ++n) {
            const int64_t at = (n * ch_ + c) * HW;
            for (int64_t i = 0; i < HW; ++i) {
              const float xh = (xp[at + i] - mu) * invstd;
              if (xhp) xhp[at + i] = xh;
              op[at + i] = g * xh + b;
            }
          }
        }
      },
      ctx.threads, channel_grain(per_ch));
  return out;
}

Tensor BatchNorm2d::backward(const ComputeContext& ctx, const Tensor& gout) {
  const int N = in_shape_[0];
  const int64_t HW = static_cast<int64_t>(in_shape_[2]) * in_shape_[3];
  const double m = static_cast<double>(N * HW);
  Tensor gx(in_shape_);
  const float* gp = gout.data();
  const float* xhp = xhat_cache_.data();
  float* gxp = gx.data();
  ThreadPool::global().parallel_for(
      0, ch_,
      [&](int64_t lo, int64_t hi) {
        for (int64_t c = lo; c < hi; ++c) {
          double sum_g = 0, sum_gx = 0;
          for (int n = 0; n < N; ++n) {
            const int64_t at = (n * ch_ + c) * HW;
            for (int64_t i = 0; i < HW; ++i) {
              const double g = gp[at + i];
              sum_g += g;
              sum_gx += g * xhp[at + i];
            }
          }
          gamma_.grad[c] += static_cast<float>(sum_gx);
          beta_.grad[c] += static_cast<float>(sum_g);
          const double gam = gamma_.value[c], invstd = invstd_cache_[c];
          for (int n = 0; n < N; ++n) {
            const int64_t at = (n * ch_ + c) * HW;
            for (int64_t i = 0; i < HW; ++i) {
              const double g = gp[at + i];
              const double xh = xhp[at + i];
              gxp[at + i] = static_cast<float>(
                  gam * invstd * (g - sum_g / m - xh * sum_gx / m));
            }
          }
        }
      },
      ctx.threads, channel_grain(N * HW));
  return gx;
}

// -------------------------------- ReLU -------------------------------------

Tensor ReLU::forward(const ComputeContext& ctx, const Tensor& x,
                     bool training) {
  Tensor out(x.shape());
  if (training) mask_ = Tensor(x.shape());
  const float* xp = x.data();
  float* op = out.data();
  float* mp = training ? mask_.data() : nullptr;
  // NaN and -0 fail x > 0, so both become +0 with a zero mask.
  ThreadPool::global().parallel_for(
      0, x.numel(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const bool pos = xp[i] > 0;
          op[i] = pos ? xp[i] : 0.0f;
          if (mp) mp[i] = pos ? 1.0f : 0.0f;
        }
      },
      ctx.threads, kPointwiseGrain);
  return out;
}

Tensor ReLU::backward(const ComputeContext& ctx, const Tensor& gout) {
  Tensor gx(gout.shape());
  const float* gp = gout.data();
  const float* mp = mask_.data();
  float* gxp = gx.data();
  ThreadPool::global().parallel_for(
      0, gout.numel(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) gxp[i] = gp[i] * mp[i];
      },
      ctx.threads, kPointwiseGrain);
  return gx;
}

// ------------------------------ MaxPool2d ----------------------------------

MaxPool2d::MaxPool2d(int k, int stride) : k_(k), stride_(stride < 0 ? k : stride) {
  if (stride_ <= 0)
    throw std::invalid_argument("MaxPool2d stride must be > 0, got " +
                                std::to_string(stride_));
}

Tensor MaxPool2d::forward(const ComputeContext&, const Tensor& x,
                          bool training) {
  const int N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const int oh = conv_out_dim(H, k_, stride_, 0);
  const int ow = conv_out_dim(W, k_, stride_, 0);
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
