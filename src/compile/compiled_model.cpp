#include "compile/compiled_model.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/im2col.hpp"
#include "util/thread_pool.hpp"

namespace srmac {

namespace {
double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

// The exec_* bodies replicate the layers' forward math expression for
// expression (nn/layers.cpp, nn/resnet.cpp) — same float casts, same
// double accumulators, same kernel entry points with the same (normalized
// config, shape, operand bits, seed). That identity is what the
// differential harness pins; any "optimization" that reassociates a float
// expression here breaks bitwise equality with the offline forward.

void CompiledModel::forward_batch(std::vector<Tensor>& xs, size_t first,
                                  size_t last) {
  if (first > last || last > stages_.size())
    throw std::out_of_range("CompiledModel::forward_batch: stages [" +
                            std::to_string(first) + ", " +
                            std::to_string(last) + ") outside a " +
                            std::to_string(stages_.size()) +
                            "-stage program");
  const int batch = static_cast<int>(xs.size());
  if (batch == 0 || first == last) return;
  if (batch > capacity_)
    throw CompileException(
        CompileError::kCapacityExceeded,
        "batch of " + std::to_string(batch) + " exceeds the compiled capacity " +
            std::to_string(capacity_));

  // Stage the inputs into stage `first`'s input buffer (samples may arrive
  // as (1,C,H,W) or bare (C,H,W) — the serving admission edge normalizes to
  // batch dimension 1).
  const int in_buf = first == 0 ? 0 : stages_[first - 1].out_buf;
  const std::vector<int>& in_shape =
      first == 0 ? input_shape_ : stages_[first - 1].out_shape;
  const int64_t in_n = buf_numel_[static_cast<size_t>(in_buf)];
  for (int s = 0; s < batch; ++s) {
    const Tensor& x = xs[s];
    const int skip =
        (x.ndim() == static_cast<int>(in_shape.size()) + 1 && x.dim(0) == 1)
            ? 1
            : 0;
    bool ok = x.ndim() - skip == static_cast<int>(in_shape.size());
    for (size_t d = 0; ok && d < in_shape.size(); ++d)
      ok = x.dim(static_cast<int>(d) + skip) == in_shape[d];
    if (!ok)
      throw CompileException(CompileError::kShapeMismatch,
                             "sample shape does not match the compiled input "
                             "shape (recompile for a different shape)");
    std::memcpy(buf(in_buf) + static_cast<size_t>(s) * in_n, x.data(),
                static_cast<size_t>(in_n) * sizeof(float));
  }

  kernel_s_ = 0;
  uint64_t gemms = 0, macs = 0, act_bytes = 0;
  const size_t op_begin = first == 0 ? 0 : stages_[first - 1].op_end;
  for (size_t i = op_begin; i < stages_[last - 1].op_end; ++i) {
    const Op& op = ops_[i];
    switch (op.kind) {
      case OpKind::kConvGemm: exec_conv(op, batch); break;
      case OpKind::kLinearGemm: exec_linear(op, batch); break;
      case OpKind::kMaxPool: exec_maxpool(op, batch); break;
      case OpKind::kGlobalAvgPool: exec_gap(op, batch); break;
      case OpKind::kEltwise: exec_eltwise(op, batch); break;
      case OpKind::kJoin: exec_join(op, batch); break;
    }
    if (op.kind == OpKind::kConvGemm || op.kind == OpKind::kLinearGemm) {
      gemms += 1;  // one wide kernel call for the whole batch
      macs += static_cast<uint64_t>(batch) * op.M * op.N * op.K;
      act_bytes += static_cast<uint64_t>(batch) * op.act_bytes;
    }
  }

  // The only steady-state allocations of the whole pass: the output tensors
  // handed back to the caller.
  const Stage& out = stages_[last - 1];
  std::vector<int> out_shape(1, 1);  // forward() keeps batch dimension 1
  out_shape.insert(out_shape.end(), out.out_shape.begin(),
                   out.out_shape.end());
  const int64_t out_n = buf_numel_[static_cast<size_t>(out.out_buf)];
  for (int s = 0; s < batch; ++s) {
    Tensor y(out_shape);
    std::memcpy(y.data(), buf(out.out_buf) + static_cast<size_t>(s) * out_n,
                static_cast<size_t>(out_n) * sizeof(float));
    xs[s] = std::move(y);
  }

  if (telemetry_ && gemms)
    telemetry_->record_compiled_forward(gemms, macs, act_bytes, kernel_s_);
}

uint64_t CompiledModel::refresh() {
  uint64_t rebuilt = 0;
  for (Op& op : ops_) {
    if (!op.w) continue;
    // fp32 convs read the live weight tensor — nothing materialized, nothing
    // to go stale. Everything else compares the owning Param's version.
    const bool materialized =
        !op.aq.empty() || !op.bpanels.bt.empty() || !op.wt.empty();
    if (!materialized || op.w->version == op.w_version) continue;
    rebuild_plane(op);
    op.w_version = op.w->version;
    ++rebuilt;
  }
  if (rebuilt) {
    stats_.planes_packed += rebuilt;
    if (telemetry_) telemetry_->record_compile_rebuild(rebuilt);
  }
  return rebuilt;
}

void CompiledModel::rebuild_plane(Op& op) {
  const Tensor& w = op.w->value;
  if (op.kind == OpKind::kConvGemm) {
    // Same elementwise RN quantization as WeightQuantCache::get(fmt, false).
    gemm_quantize(op.cfg.mul_fmt, op.M, op.K, w.data(), op.K, op.aq.data(),
                  threads_);
    return;
  }
  if (!op.wt.empty()) {
    // fp32 Linear: re-materialize W^T, as matmul_nt's transpose does.
    for (int o = 0; o < op.N; ++o)
      for (int k = 0; k < op.K; ++k)
        op.wt[static_cast<size_t>(k) * op.N + o] = w.at(o, k);
    return;
  }
  // Bit-accurate Linear: requantize the transposed plane (as the layer's
  // WeightQuantCache transposed path does) and repack it into the panel
  // layout.
  std::vector<uint32_t> wqt(static_cast<size_t>(op.K) * op.N);
  gemm_quantize_transposed(op.cfg.mul_fmt, op.N, op.K, w.data(), wqt.data(),
                           threads_);
  gemm_pack_b_into(op.cfg, op.K, op.N, wqt.data(), op.N, &op.bpanels,
                   threads_);
}

void CompiledModel::apply_epilogue(const Op& op, float* out,
                                   int64_t numel) const {
  if (op.affine) {
    // BatchNorm2d::forward's inference expression, per channel row:
    // out = gamma * ((x - (float)mean) * invstd) + beta.
    const Affine& af = *op.affine;
    // Channel count from the fold itself: op.ch is the *input* channel
    // count on conv ops, but the affine normalizes the output channels.
    const int C = static_cast<int>(af.mean.size());
    for (int c = 0; c < C; ++c) {
      const float g = af.gamma->value[c], b = af.beta->value[c];
      const float m = af.mean[c], inv = af.invstd[c];
      float* row = out + static_cast<size_t>(c) * op.N;
      for (int i = 0; i < op.N; ++i) {
        const float xh = (row[i] - m) * inv;
        row[i] = g * xh + b;
      }
    }
  }
  if (op.bias) {
    const float* b = op.bias->value.data();
    for (int o = 0; o < op.N; ++o) out[o] += b[o];
  }
  if (op.relu) {
    for (int64_t i = 0; i < numel; ++i)
      if (!(out[i] > 0)) out[i] = 0.0f;
  }
}

void CompiledModel::exec_conv(const Op& op, int batch) {
  const int64_t L = op.N;
  const int64_t in_n = buf_numel_[static_cast<size_t>(op.src)];
  const int64_t out_n = buf_numel_[static_cast<size_t>(op.dst)];
  const float* src = buf(op.src);
  float* dst = buf(op.dst);
  // Grouped same-shape execution: ONE wide kernel over the whole batch.
  // The samples' im2col panels concatenate along the column axis (sample
  // s in columns [s*L, (s+1)*L)); seed_col_period = L makes column s*L+t
  // seed exactly as a standalone forward's column t, so the merged kernel
  // returns every sample's standalone bits.
  const int wideN = batch * static_cast<int>(L);
  ThreadPool::global().parallel_for(
      0, batch,
      [&](int64_t lo, int64_t hi) {
        for (int64_t s = lo; s < hi; ++s)
          im2col(src + s * in_n, op.ch, op.H, op.W, op.kk, op.kk, op.stride,
                 op.pad, cols_.get() + s * L,
                 /*row_stride=*/static_cast<int64_t>(wideN));
      },
      threads_);
  if (op.bits) {
    // One quantize + one pack + one kernel for the whole batch
    // (quantization is elementwise, so the wide panel's bits equal the
    // per-sample panels' bits column for column).
    gemm_quantize(op.cfg.mul_fmt, op.K, wideN, cols_.get(), wideN,
                  qcols_.get(), threads_);
    gemm_pack_b_into(op.cfg, op.K, wideN, qcols_.get(), wideN, &panel_,
                     threads_);
  }
  const double t0 = telemetry_ ? now_s() : 0.0;
  if (op.bits)
    gemm_mac_bits_packed(op.cfg, op.M, wideN, op.K, op.aq.data(), op.K,
                         panel_, gout_.get(), wideN, /*accumulate=*/false,
                         op.seed, threads_, /*seed_row_period=*/0,
                         /*seed_col_period=*/static_cast<int>(L));
  else
    gemm_ref(op.M, wideN, op.K, op.w->value.data(), op.K, cols_.get(), wideN,
             gout_.get(), wideN, /*accumulate=*/false, threads_);
  if (telemetry_) kernel_s_ += now_s() - t0;
  if (telemetry_ && batch > 1) telemetry_->record_grouped_gemm(batch);
  // Scatter wide (c, s*L + t) -> sample s's (c, t) slice, then the
  // per-sample epilogue pass.
  ThreadPool::global().parallel_for(
      0, batch,
      [&](int64_t lo, int64_t hi) {
        for (int64_t s = lo; s < hi; ++s) {
          float* out = dst + s * out_n;
          for (int c = 0; c < op.M; ++c)
            std::memcpy(out + static_cast<size_t>(c) * L,
                        gout_.get() + (static_cast<size_t>(c) * batch + s) * L,
                        static_cast<size_t>(L) * sizeof(float));
          apply_epilogue(op, out, out_n);
        }
      },
      threads_);
}

void CompiledModel::exec_linear(const Op& op, int batch) {
  const float* src = buf(op.src);
  float* dst = buf(op.dst);
  // Grouped: the activation rows are one contiguous (batch x K) A operand
  // (in_n == K for every Linear op: the lowering checks numel() ==
  // in_features), and the dst rows are contiguous with ldc = N — one wide
  // kernel writes every sample's output in place. seed_row_period = 1
  // makes row s seed as row 0, a standalone M=1 forward's seed, so the
  // merge changes no bits.
  // One elementwise quantization sweep over all samples' activation rows
  // (identical bits to matmul_qb's per-sample quantize).
  if (op.bits)
    gemm_quantize(op.cfg.mul_fmt, batch, op.K, src, op.K, qact_.get(),
                  threads_);
  const double t0 = telemetry_ ? now_s() : 0.0;
  if (op.bits)
    gemm_mac_bits_packed(op.cfg, batch, op.N, op.K, qact_.get(), op.K,
                         op.bpanels, dst, op.N, /*accumulate=*/false, op.seed,
                         threads_, /*seed_row_period=*/1,
                         /*seed_col_period=*/0);
  else
    gemm_ref(batch, op.N, op.K, src, op.K, op.wt.data(), op.N, dst, op.N,
             /*accumulate=*/false, threads_);
  if (telemetry_) kernel_s_ += now_s() - t0;
  if (telemetry_ && batch > 1) telemetry_->record_grouped_gemm(batch);
  for (int s = 0; s < batch; ++s)
    apply_epilogue(op, dst + static_cast<size_t>(s) * op.N, op.N);
}

void CompiledModel::exec_maxpool(const Op& op, int batch) {
  const int64_t in_n = buf_numel_[static_cast<size_t>(op.src)];
  const int64_t out_n = buf_numel_[static_cast<size_t>(op.dst)];
  for (int s = 0; s < batch; ++s) {
    const float* x = buf(op.src) + static_cast<size_t>(s) * in_n;
    float* out = buf(op.dst) + static_cast<size_t>(s) * out_n;
    // MaxPool2d::forward's exact window scan.
    for (int c = 0; c < op.ch; ++c)
      for (int y = 0; y < op.oh; ++y)
        for (int xo = 0; xo < op.ow; ++xo) {
          float best = -1e30f;
          for (int i = 0; i < op.kk; ++i)
            for (int j = 0; j < op.kk; ++j) {
              const int iy = y * op.stride + i, ix = xo * op.stride + j;
              const float v =
                  x[(static_cast<size_t>(c) * op.H + iy) * op.W + ix];
              if (v > best) best = v;
            }
          out[(static_cast<size_t>(c) * op.oh + y) * op.ow + xo] = best;
        }
  }
}

void CompiledModel::exec_gap(const Op& op, int batch) {
  const int64_t in_n = buf_numel_[static_cast<size_t>(op.src)];
  for (int s = 0; s < batch; ++s) {
    const float* x = buf(op.src) + static_cast<size_t>(s) * in_n;
    float* out = buf(op.dst) + static_cast<size_t>(s) * op.ch;
    // GlobalAvgPool::forward's double-accumulated per-channel mean.
    for (int c = 0; c < op.ch; ++c) {
      double acc = 0;
      const float* plane = x + static_cast<size_t>(c) * op.H * op.W;
      for (int i = 0; i < op.H * op.W; ++i) acc += plane[i];
      out[c] = static_cast<float>(acc / (op.H * op.W));
    }
  }
}

void CompiledModel::exec_eltwise(const Op& op, int batch) {
  const int64_t n = buf_numel_[static_cast<size_t>(op.dst)];
  for (int s = 0; s < batch; ++s) {
    const float* x = buf(op.src) + static_cast<size_t>(s) * n;
    float* out = buf(op.dst) + static_cast<size_t>(s) * n;
    std::memcpy(out, x, static_cast<size_t>(n) * sizeof(float));
    apply_epilogue(op, out, n);
  }
}

void CompiledModel::exec_join(const Op& op, int batch) {
  const int64_t n = buf_numel_[static_cast<size_t>(op.dst)];
  for (int s = 0; s < batch; ++s) {
    const float* h = buf(op.src) + static_cast<size_t>(s) * n;
    const float* sc = buf(op.src2) + static_cast<size_t>(s) * n;
    float* out = buf(op.dst) + static_cast<size_t>(s) * n;
    // add_inplace + ReLU, the residual blocks' exit expression.
    for (int64_t i = 0; i < n; ++i) {
      const float v = h[i] + sc[i];
      out[i] = op.relu && !(v > 0) ? 0.0f : v;
    }
  }
}

}  // namespace srmac
