#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace srmac {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Dispatches one GEMM on the context's backend, recording
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
  Item item;
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

void MatmulBatch::flush() {
  if (items_.empty()) return;
  assert(base_.backend && "ComputeContext must carry a backend");
  // Move the items and their operands out first: a throwing GEMM must leave
  // the batch empty, or the destructor would run the failed batch again.
  // `owned` keeps the staged operands alive until the GEMMs have run.
  const std::vector<Item> items = std::exchange(items_, {});
  const std::deque<std::vector<float>> owned = std::exchange(owned_, {});
  // The largest item thread cap, or none (0) when any item is uncapped.
  int cap = 0;
  for (const Item& it : items) {
    if (it.args.threads <= 0) {
      cap = 0;
      break;
    }
    cap = std::max(cap, it.args.threads);
  }
  const double t0 = base_.telemetry ? now_s() : 0.0;
  ThreadPool::global().parallel_for(
      0, static_cast<int64_t>(items.size()),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
          base_.backend->gemm(items[i].cfg, items[i].args);
      },
      cap, /*grain=*/1);
  if (!base_.telemetry) return;
  uint64_t macs = 0;
  for (const Item& it : items)
    macs += static_cast<uint64_t>(it.args.M) * it.args.N * it.args.K;
  base_.telemetry->record_batch(base_.backend->name(), items.size(), macs,
                                now_s() - t0);
  // Every item quantized both of its operands, in its own pass's format.
  if (base_.bit_accurate())
    for (const Item& it : items)
      base_.telemetry->record_quantize(
          static_cast<uint64_t>(it.args.M) * it.args.K +
              static_cast<uint64_t>(it.args.K) * it.args.N,
          it.cfg.mul_fmt);
}

void add_inplace(Tensor& a, const Tensor& b, int threads) {
  assert(a.numel() == b.numel());
  float* pa = a.data();
  const float* pb = b.data();
  ThreadPool::global().parallel_for(
      0, a.numel(),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
      },
      threads, kPointwiseGrain);
}

}  // namespace srmac
