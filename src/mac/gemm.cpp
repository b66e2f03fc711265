#include "mac/gemm.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "fpemu/quantizer.hpp"
#include "fpemu/softfloat.hpp"
#include "mac/mac_kernel.hpp"
#include "mac/mac_unit.hpp"
#include "rng/lfsr.hpp"
#include "util/thread_pool.hpp"

namespace srmac {

// Defined in mac_kernel_avx512.cpp: the MAC kernel's cpuid gate and the
// converter's loop compiled for AVX-512.
bool mac_kernel_avx512_supported();
void quantize_avx512(const FpQuantizer& q, const float* src, uint32_t* dst,
                     size_t n);

namespace {

/// splitmix-style hash for reproducible per-element LFSR seeds.
inline uint64_t mix_seed(uint64_t s, uint64_t i, uint64_t j) {
  uint64_t z = s + 0x9E3779B97F4A7C15ull * (i * 0x100000001B3ull + j + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// mix_seed through the optional seed periods (grouped same-shape
/// execution, see the gemm_mac_bits_packed contract in gemm.hpp): a
/// non-zero period folds the coordinate before hashing, so element
/// (i, s*L + t) of a wide column-concatenated GEMM draws the same LFSR
/// sequence as element (i, t) of the standalone problem it came from.
inline uint64_t mix_seed_periodic(uint64_t s, uint64_t i, uint64_t j,
                                  int row_period, int col_period) {
  if (row_period > 0) i %= static_cast<uint64_t>(row_period);
  if (col_period > 0) j %= static_cast<uint64_t>(col_period);
  return mix_seed(s, i, j);
}

/// The LFSR registers of output elements (i, j0 + l) for l < valid, seeded
/// as MacUnit seeds its own: mix_seed_periodic's folds, taken once per
/// group. Lanes past `valid` (a partial group's zero padding) get a fixed
/// nonzero state; their chains are never stored.
void seed_group(uint64_t* lfsr, int lanes, int valid, int width,
                uint64_t seed, int64_t i, int j0, int row_period,
                int col_period) {
  uint64_t fi = static_cast<uint64_t>(i), fj = static_cast<uint64_t>(j0);
  if (row_period > 0) fi %= static_cast<uint64_t>(row_period);
  if (col_period > 0) fj %= static_cast<uint64_t>(col_period);
  int l = 0;
  for (; l < valid; ++l) {
    lfsr[l] = GaloisLfsr::seed_state(width, mix_seed(seed, fi, fj));
    ++fj;
    if (col_period > 0 && fj == static_cast<uint64_t>(col_period)) fj = 0;
  }
  for (; l < lanes; ++l) lfsr[l] = 1;
}

/// Words of a packed B panel: K times N rounded up to the group width G.
size_t panel_words(int K, int N, int G) {
  return static_cast<size_t>(K) * ((static_cast<size_t>(N) + G - 1) / G) * G;
}

/// Blocking parameter (see docs/PERF.md): NC bounds the packed-B working
/// set of one row sweep (NC * K operand words). A multiple of every group
/// width, so a panel is whole groups.
constexpr int kNc = 64;
static_assert(kNc % FusedMacKernel::kMaxGroupWidth == 0 &&
              kNc % FusedMacKernel::kLanes == 0);

/// Elements per gemm_quantize pool chunk. The vector converter runs at
/// well under a nanosecond per element, so a chunk must carry enough
/// elements to outweigh the pool's dispatch.
constexpr int64_t kQuantGrain = 16384;

/// MAC steps per gemm_mac_bits_packed thread. One thread runs the fused
/// chain at about two nanoseconds a step and a pool dispatch costs ten to
/// twenty microseconds, so a problem needs several thousand steps per
/// thread before a second thread pays for itself. Smaller problems (a
/// serving wave through a small Linear layer) run inline on the caller and
/// wait on no worker.
constexpr int64_t kMacGrain = 8192;

/// dst[i] = q(src[i]) for i in [0, n): the converter's loop compiled for
/// AVX-512 when the MAC kernel's cpuid gate passes, else the portable build
/// of the same body (same bits either way).
void quantize_span(const FpQuantizer& q, const float* src, uint32_t* dst,
                   size_t n) {
  static const bool avx512 = mac_kernel_avx512_supported();
  if (avx512)
    quantize_avx512(q, src, dst, n);
  else
    q.convert(src, dst, n);
}

/// The golden operand quantization: SoftFloat::from_double per element.
/// Only gemm_mac_reference uses it, so the parity suites comparing the
/// fused engine against the reference also test gemm_quantize's converter.
void quantize_golden(const FpFormat& fmt, int rows, int cols,
                     const float* src, int ld, uint32_t* dst, int threads) {
  ThreadPool::global().parallel_for(
      0, rows,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r)
          for (int c = 0; c < cols; ++c)
            dst[static_cast<size_t>(r) * cols + c] = SoftFloat::from_double(
                fmt, src[static_cast<size_t>(r) * ld + c]);
      },
      threads, /*grain=*/16);
}

}  // namespace

void gemm_quantize(const FpFormat& fmt, int rows, int cols, const float* src,
                   int ld, uint32_t* dst, int threads) {
  const FpQuantizer q(fmt);
  // Split by element count, not rows, so a short wide plane (a 27 x 16384
  // im2col panel) still spreads over every thread; a chunk converts the
  // row segments it covers.
  ThreadPool::global().parallel_for(
      0, static_cast<int64_t>(rows) * cols,
      [&](int64_t lo, int64_t hi) {
        while (lo < hi) {
          const int64_t r = lo / cols, c = lo % cols;
          const int64_t n = std::min<int64_t>(hi - lo, cols - c);
          quantize_span(q, src + r * ld + c, dst + lo,
                        static_cast<size_t>(n));
          lo += n;
        }
      },
      threads, kQuantGrain);
}

void gemm_quantize_transposed(const FpFormat& fmt, int rows, int cols,
                              const float* src, uint32_t* dst, int threads) {
  const FpQuantizer q(fmt);
  ThreadPool::global().parallel_for(
      0, rows,
      [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r)
          for (int c = 0; c < cols; ++c)
            dst[static_cast<size_t>(c) * rows + r] =
                q(src[static_cast<size_t>(r) * cols + c]);
      },
      threads, /*grain=*/16);
}

size_t gemm_packed_b_words(const MacConfig& cfg, int K, int N) {
  return panel_words(K, N, FusedMacKernel(cfg.normalized()).group_width());
}

void gemm_pack_b_into(const MacConfig& cfg, int K, int N, const uint32_t* Bq,
                      int ldb, PackedBPanels* out, int threads) {
  const int G = FusedMacKernel(cfg.normalized()).group_width();

  // Pack B into group panels, interleaved (bt[group][k*G + l]) so a
  // lockstep step reads all lanes' operands from one contiguous line. Every
  // column sits in a group; the last group's lanes past N are zero, so
  // their products are zero and the padded chains never leave +0.
  out->K = K;
  out->N = N;
  out->group = G;
  const int64_t groups = (static_cast<int64_t>(N) + G - 1) / G;
  out->bt.resize(panel_words(K, N, G));
  uint32_t* bt = out->bt.data();
  ThreadPool::global().parallel_for(
      0, groups,
      [&](int64_t lo, int64_t hi) {
        for (int64_t g = lo; g < hi; ++g) {
          const int64_t j0 = g * G;
          const int w = static_cast<int>(std::min<int64_t>(G, N - j0));
          uint32_t* dst = bt + static_cast<size_t>(g) * G * K;
          for (int k = 0; k < K; ++k, dst += G) {
            const uint32_t* src = Bq + static_cast<size_t>(k) * ldb + j0;
            int l = 0;
            for (; l < w; ++l) dst[l] = src[l];
            for (; l < G; ++l) dst[l] = 0;
          }
        }
      },
      threads, /*grain=*/std::max(1, 16 / G));
}

PackedBPanels gemm_pack_b(const MacConfig& cfg, int K, int N,
                          const uint32_t* Bq, int ldb, int threads) {
  PackedBPanels out;
  gemm_pack_b_into(cfg, K, N, Bq, ldb, &out, threads);
  return out;
}

void gemm_mac_bits_packed(const MacConfig& cfg, int M, int N, int K,
                          const uint32_t* Aq, int lda, const PackedBPanels& B,
                          float* C, int ldc, bool accumulate, uint64_t seed,
                          int threads, int seed_row_period,
                          int seed_col_period) {
  const MacConfig c = cfg.normalized();
  const FusedMacKernel kernel(c);
  const int G = kernel.group_width();
  const int width = kernel.lfsr_width();
  assert(B.K == K && B.N == N && B.group == G &&
         B.bt.size() == panel_words(K, N, G) &&
         "PackedBPanels must be packed for this problem and config");
  const uint32_t* bt = B.bt.data();
  const int cap = static_cast<int>(
      std::clamp<int64_t>(static_cast<int64_t>(M) * N * K / kMacGrain, 1,
                          ThreadPool::global().parallelism()));
  threads = threads > 0 ? std::min(threads, cap) : cap;
  ThreadPool::global().parallel_for(
      0, M,
      [&](int64_t row_lo, int64_t row_hi) {
        uint64_t lfsr[FusedMacKernel::kMaxGroupWidth];
        // MC x NC blocking: this task's rows sweep one NC-wide panel of
        // packed B at a time; within the panel, G = group_width() output
        // elements run in lockstep (independent chains hide the per-add
        // latency), each walking all of K in one kernel call that reads and
        // writes its outputs and steps its lane's LFSR register in place.
        // The last group of a row is partial when G does not divide N: the
        // kernel reads and stores only its `valid` lanes.
        for (int jc = 0; jc < N; jc += kNc) {
          const int jhi = std::min(N, jc + kNc);
          for (int64_t i = row_lo; i < row_hi; ++i) {
            const uint32_t* arow = Aq + static_cast<size_t>(i) * lda;
            float* crow = C + static_cast<size_t>(i) * ldc;
            for (int j = jc; j < jhi; j += G) {
              const int valid = std::min(G, N - j);
              seed_group(lfsr, G, valid, width, seed, i, j, seed_row_period,
                         seed_col_period);
              kernel.chain_group(arow, bt + static_cast<size_t>(j) * K, K,
                                 lfsr, crow + j, valid, accumulate);
            }
          }
        }
      },
      threads, /*grain=*/1);
}

void gemm_dequantize(const FpFormat& fmt, int rows, int cols,
                     const uint32_t* src, int ld, float* dst) {
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      dst[static_cast<size_t>(r) * cols + c] = static_cast<float>(
          SoftFloat::to_double(fmt, src[static_cast<size_t>(r) * ld + c]));
}

void gemm_mac_bits(const MacConfig& cfg, int M, int N, int K,
                   const uint32_t* Aq, int lda, const uint32_t* Bq, int ldb,
                   float* C, int ldc, bool accumulate, uint64_t seed,
                   int threads, int seed_row_period, int seed_col_period) {
  const MacConfig c = cfg.normalized();
  const PackedBPanels packed = gemm_pack_b(c, K, N, Bq, ldb, threads);
  gemm_mac_bits_packed(c, M, N, K, Aq, lda, packed, C, ldc, accumulate, seed,
                       threads, seed_row_period, seed_col_period);
}

void gemm_mac(const MacConfig& cfg, int M, int N, int K, const float* A,
              int lda, const float* B, int ldb, float* C, int ldc,
              bool accumulate, uint64_t seed, int threads,
              int seed_row_period, int seed_col_period) {
  const MacConfig c = cfg.normalized();
  std::vector<uint32_t> qa(static_cast<size_t>(M) * K);
  std::vector<uint32_t> qb(static_cast<size_t>(K) * N);
  gemm_quantize(c.mul_fmt, M, K, A, lda, qa.data(), threads);
  gemm_quantize(c.mul_fmt, K, N, B, ldb, qb.data(), threads);
  gemm_mac_bits(c, M, N, K, qa.data(), K, qb.data(), N, C, ldc, accumulate,
                seed, threads, seed_row_period, seed_col_period);
}

void gemm_mac_reference(const MacConfig& cfg, int M, int N, int K,
                        const float* A, int lda, const float* B, int ldb,
                        float* C, int ldc, bool accumulate, uint64_t seed,
                        int threads, int seed_row_period,
                        int seed_col_period) {
  const MacConfig c = cfg.normalized();

  // Quantize operands once (RN into the multiplier input format).
  std::vector<uint32_t> qa(static_cast<size_t>(M) * K);
  std::vector<uint32_t> qb(static_cast<size_t>(K) * N);
  quantize_golden(c.mul_fmt, M, K, A, lda, qa.data(), threads);
  quantize_golden(c.mul_fmt, K, N, B, ldb, qb.data(), threads);

  ThreadPool::global().parallel_for(
      0, M,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          for (int j = 0; j < N; ++j) {
            MacUnit unit(c, mix_seed_periodic(
                                seed, static_cast<uint64_t>(i),
                                static_cast<uint64_t>(j), seed_row_period,
                                seed_col_period));
            if (accumulate) {
              unit.set_acc(SoftFloat::from_double(
                  c.acc_fmt, C[static_cast<size_t>(i) * ldc + j]));
            }
            for (int k = 0; k < K; ++k)
              unit.step(qa[static_cast<size_t>(i) * K + k],
                        qb[static_cast<size_t>(k) * N + j]);
            C[static_cast<size_t>(i) * ldc + j] =
                static_cast<float>(unit.acc_value());
          }
        }
      },
      threads, /*grain=*/1);
}

void gemm_ref(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, float* C, int ldc, bool accumulate, int threads) {
  ThreadPool::global().parallel_for(
      0, M,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          for (int j = 0; j < N; ++j) {
            float acc = accumulate ? C[static_cast<size_t>(i) * ldc + j] : 0.0f;
            for (int k = 0; k < K; ++k)
              acc += A[static_cast<size_t>(i) * lda + k] *
                     B[static_cast<size_t>(k) * ldb + j];
            C[static_cast<size_t>(i) * ldc + j] = acc;
          }
        }
      },
      threads, /*grain=*/1);
}

}  // namespace srmac
