#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>
#include <vector>

#include "mac/gemm.hpp"
#include "util/thread_pool.hpp"

namespace srmac {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Dispatches one float-operand GEMM on the context's backend, recording
/// the call into the telemetry sink when one is attached.
void dispatch(const ComputeContext& ctx, const GemmArgs& args) {
  assert(ctx.backend && "ComputeContext must carry a backend");
  const MacConfig cfg = ctx.mac_config().normalized();
  const double t0 = ctx.telemetry ? now_s() : 0.0;
  ctx.backend->gemm(cfg, args);
  if (ctx.telemetry) {
    ctx.telemetry->record_gemm(ctx.backend->name(), args.M, args.N, args.K,
                               now_s() - t0);
    if (ctx.bit_accurate())
      ctx.telemetry->record_quantize(
          static_cast<uint64_t>(args.M) * args.K +
              static_cast<uint64_t>(args.K) * args.N,
          cfg.mul_fmt);
  }
}

/// Dispatches one pre-quantized-operand GEMM on the context's backend;
/// `fresh_quant_values` is how many operand words this call quantized anew
/// (the cached plane was not).
void dispatch_bits(const ComputeContext& ctx, const MacConfig& cfg,
                   const GemmBitsArgs& args, uint64_t fresh_quant_values) {
  const double t0 = ctx.telemetry ? now_s() : 0.0;
  ctx.backend->gemm_bits(cfg, args);
  if (ctx.telemetry) {
    ctx.telemetry->record_gemm(ctx.backend->name(), args.M, args.N, args.K,
                               now_s() - t0);
    ctx.telemetry->record_quantize(fresh_quant_values, cfg.mul_fmt);
  }
}

/// Dense decode of a quantized operand plane back to floats — the fallback
/// feeding backends without native gemm_bits (see gemm_dequantize for the
/// lossless-round-trip argument).
std::vector<float> decode_plane(const FpFormat& fmt, int rows, int cols,
                                const uint32_t* bits) {
  std::vector<float> out(static_cast<size_t>(rows) * cols);
  gemm_dequantize(fmt, rows, cols, bits, cols, out.data());
  return out;
}

/// dst[c * rows + r] = src[r * cols + c]: materializes the transpose of a
/// row-major rows x cols matrix (shared by the _nt/_tn entry points and
/// MatmulBatch's owned-transpose adds). Square tiles keep a tile's source
/// lines and destination lines in L1 while it is copied; the tiles split
/// across the pool.
void transpose_into(float* dst, const float* src, int rows, int cols,
                    int threads) {
  constexpr int kTile = 32;
  const int64_t col_tiles = (cols + kTile - 1) / kTile;
  const int64_t tiles = (rows + kTile - 1) / kTile * col_tiles;
  ThreadPool::global().parallel_for(
      0, tiles,
      [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
          const int r0 = static_cast<int>(t / col_tiles) * kTile;
          const int c0 = static_cast<int>(t % col_tiles) * kTile;
          const int r1 = std::min(rows, r0 + kTile);
          const int c1 = std::min(cols, c0 + kTile);
          for (int c = c0; c < c1; ++c)
            for (int r = r0; r < r1; ++r)
              dst[static_cast<size_t>(c) * rows + r] =
                  src[static_cast<size_t>(r) * cols + c];
        }
      },
      threads, /*grain=*/16);
}

}  // namespace

void matmul(const ComputeContext& ctx, int M, int N, int K, const float* A,
            const float* B, float* C, bool accumulate) {
  GemmArgs args;
  args.M = M;
  args.N = N;
  args.K = K;
  args.A = A;
  args.lda = K;
  args.B = B;
  args.ldb = N;
  args.C = C;
  args.ldc = N;
  args.accumulate = accumulate;
  args.seed = ctx.seed;
  args.threads = ctx.threads;
  dispatch(ctx, args);
}

void matmul_qa(const ComputeContext& ctx, int M, int N, int K,
               const uint32_t* Aq, const float* B, float* C, bool accumulate) {
  assert(ctx.bit_accurate() && "quantized-operand matmul needs a MAC context");
  const MacConfig cfg = ctx.mac_config().normalized();
  if (!ctx.backend->supports_prequantized()) {
    const std::vector<float> a = decode_plane(cfg.mul_fmt, M, K, Aq);
    matmul(ctx, M, N, K, a.data(), B, C, accumulate);
    return;
  }
  std::vector<uint32_t> qb(static_cast<size_t>(K) * N);
  gemm_quantize(cfg.mul_fmt, K, N, B, N, qb.data(), ctx.threads);
  GemmBitsArgs args;
  args.M = M;
  args.N = N;
  args.K = K;
  args.Aq = Aq;
  args.lda = K;
  args.Bq = qb.data();
  args.ldb = N;
  args.C = C;
  args.ldc = N;
  args.accumulate = accumulate;
  args.seed = ctx.seed;
  args.threads = ctx.threads;
  // Only B was freshly quantized; the cached A plane was not.
  dispatch_bits(ctx, cfg, args, static_cast<uint64_t>(K) * N);
}

void matmul_qb(const ComputeContext& ctx, int M, int N, int K, const float* A,
               const uint32_t* Bq, float* C, bool accumulate) {
  assert(ctx.bit_accurate() && "quantized-operand matmul needs a MAC context");
  const MacConfig cfg = ctx.mac_config().normalized();
  if (!ctx.backend->supports_prequantized()) {
    const std::vector<float> b = decode_plane(cfg.mul_fmt, K, N, Bq);
    matmul(ctx, M, N, K, A, b.data(), C, accumulate);
    return;
  }
  std::vector<uint32_t> qa(static_cast<size_t>(M) * K);
  gemm_quantize(cfg.mul_fmt, M, K, A, K, qa.data(), ctx.threads);
  GemmBitsArgs args;
  args.M = M;
  args.N = N;
  args.K = K;
  args.Aq = qa.data();
  args.lda = K;
  args.Bq = Bq;
  args.ldb = N;
  args.C = C;
  args.ldc = N;
  args.accumulate = accumulate;
  args.seed = ctx.seed;
  args.threads = ctx.threads;
  dispatch_bits(ctx, cfg, args, static_cast<uint64_t>(M) * K);
}

void matmul_nt(const ComputeContext& ctx, int M, int N, int K, const float* A,
               const float* B_t, float* C, bool accumulate) {
  std::vector<float> B(static_cast<size_t>(K) * N);
  transpose_into(B.data(), B_t, N, K, ctx.threads);
  matmul(ctx, M, N, K, A, B.data(), C, accumulate);
}

void matmul_tn(const ComputeContext& ctx, int M, int N, int K,
               const float* A_t, const float* B, float* C, bool accumulate) {
  std::vector<float> A(static_cast<size_t>(M) * K);
  transpose_into(A.data(), A_t, K, M, ctx.threads);
  matmul(ctx, M, N, K, A.data(), B, C, accumulate);
}

void MatmulBatch::add(const ComputeContext& ctx, int M, int N, int K,
                      const float* A, const float* B, float* C,
                      bool accumulate) {
  assert(ctx.backend == base_.backend &&
         "every GEMM of a batch must target the base context's backend");
  GemmBatchItem item;
  item.cfg = ctx.mac_config().normalized();
  item.args.M = M;
  item.args.N = N;
  item.args.K = K;
  item.args.A = A;
  item.args.lda = K;
  item.args.B = B;
  item.args.ldb = N;
  item.args.C = C;
  item.args.ldc = N;
  item.args.accumulate = accumulate;
  item.args.seed = ctx.seed;
  item.args.threads = ctx.threads;
  items_.push_back(item);
}

void MatmulBatch::add_nt(const ComputeContext& ctx, int M, int N, int K,
                         const float* A, const float* B_t, float* C,
                         bool accumulate) {
  std::vector<float>& B = owned_.emplace_back(static_cast<size_t>(K) * N);
  transpose_into(B.data(), B_t, N, K, ctx.threads);
  add(ctx, M, N, K, A, B.data(), C, accumulate);
}

void MatmulBatch::add_tn(const ComputeContext& ctx, int M, int N, int K,
                         const float* A_t, const float* B, float* C,
                         bool accumulate) {
  std::vector<float>& A = owned_.emplace_back(static_cast<size_t>(M) * K);
  transpose_into(A.data(), A_t, K, M, ctx.threads);
  add(ctx, M, N, K, A.data(), B, C, accumulate);
}

void MatmulBatch::add_qa(const ComputeContext& ctx, int M, int N, int K,
                         const uint32_t* Aq, const float* B, float* C,
                         bool accumulate) {
  assert(ctx.bit_accurate() && "quantized-operand add needs a MAC context");
  add(ctx, M, N, K, /*A=*/nullptr, B, C, accumulate);
  items_.back().Aq = Aq;
}

void MatmulBatch::add_qb(const ComputeContext& ctx, int M, int N, int K,
                         const float* A, const uint32_t* Bq, float* C,
                         bool accumulate) {
  assert(ctx.bit_accurate() && "quantized-operand add needs a MAC context");
  add(ctx, M, N, K, A, /*B=*/nullptr, C, accumulate);
  items_.back().Bq = Bq;
}

void MatmulBatch::flush() {
  if (items_.empty()) return;
  assert(base_.backend && "ComputeContext must carry a backend");
  // Shard-scheduling backends expose cumulative counters; snapshot around
  // the dispatch and record the delta.
  const auto* shard_src =
      base_.telemetry ? dynamic_cast<const ShardStatsSource*>(base_.backend)
                      : nullptr;
  const ShardStatsSource::Stats before =
      shard_src ? shard_src->shard_stats() : ShardStatsSource::Stats{};
  const double t0 = base_.telemetry ? now_s() : 0.0;
  base_.backend->gemm_batch(items_.data(), items_.size());
  if (shard_src) {
    ShardStatsSource::Stats after = shard_src->shard_stats();
    after.migrations -= before.migrations;
    after.plane_bytes_quantized -= before.plane_bytes_quantized;
    for (size_t s = 0;
         s < after.planes_packed.size() && s < before.planes_packed.size();
         ++s)
      after.planes_packed[s] -= before.planes_packed[s];
    base_.telemetry->record_sharded(base_.backend->name(), after.migrations,
                                    after.planes_packed,
                                    after.plane_bytes_quantized);
  }
  if (base_.telemetry) {
    uint64_t macs = 0;
    // Fresh-quantization accounting, per item format (items of one batch
    // may run different policy passes). Cached planes (Aq/Bq) were not
    // quantized by this dispatch; the default loop quantizes every float
    // operand per item, while a shard-scheduling backend quantizes a
    // shared B plane once per shard and reported the exact bytes through
    // record_sharded above, so its B planes are skipped here entirely.
    std::vector<std::pair<FpFormat, uint64_t>> per_fmt;
    auto count_quant = [&](const FpFormat& fmt, uint64_t values) {
      for (auto& [f, v] : per_fmt) {
        if (f == fmt) {
          v += values;
          return;
        }
      }
      per_fmt.emplace_back(fmt, values);
    };
    for (const GemmBatchItem& it : items_) {
      macs += static_cast<uint64_t>(it.args.M) * it.args.N * it.args.K;
      if (!base_.bit_accurate()) continue;
      const FpFormat fmt = it.cfg.normalized().mul_fmt;
      if (!it.Aq)
        count_quant(fmt, static_cast<uint64_t>(it.args.M) * it.args.K);
      if (!it.Bq && !shard_src)
        count_quant(fmt, static_cast<uint64_t>(it.args.K) * it.args.N);
    }
    base_.telemetry->record_batch(base_.backend->name(), items_.size(), macs,
                                  now_s() - t0);
    for (const auto& [fmt, values] : per_fmt)
      base_.telemetry->record_quantize(values, fmt);
  }
  items_.clear();
  owned_.clear();
}

void add_inplace(Tensor& a, const Tensor& b) {
  assert(a.numel() == b.numel());
  for (int64_t i = 0; i < a.numel(); ++i) a[i] += b[i];
}

void scale_inplace(Tensor& a, float s) {
  for (int64_t i = 0; i < a.numel(); ++i) a[i] *= s;
}

Tensor transpose2d(const Tensor& x) {
  assert(x.ndim() == 2);
  Tensor t({x.dim(1), x.dim(0)});
  for (int i = 0; i < x.dim(0); ++i)
    for (int j = 0; j < x.dim(1); ++j) t.at(j, i) = x.at(i, j);
  return t;
}

}  // namespace srmac
