#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "mac/mac_config.hpp"

namespace srmac {

class FusedMacKernel;

/// One B operand packed into the group-interleaved panel layout the fused
/// kernel consumes: column j is lane j % group of group j / group, stored as
/// `bt[(j / group) * group * K + k * group + j % group]`. Every column sits
/// in a group; the last one is zero-padded to the full group width, and the
/// padding lanes' outputs are never read or written. Built once by
/// gemm_pack_b and reusable across every GEMM that multiplies against the
/// same weight plane — the compiled model packs each weight plane once and
/// reuses it for every request (docs/COMPILER.md).
struct PackedBPanels {
  int K = 0;
  int N = 0;
  int group = 0;  ///< FusedMacKernel::group_width() at pack time
  std::vector<uint32_t> bt;  ///< gemm_packed_b_words(cfg, K, N) words
};

/// Size of PackedBPanels::bt for a KxN operand under `cfg`: K times N
/// rounded up to the group width. Callers that repack into reused storage
/// reserve this much once.
size_t gemm_packed_b_words(const MacConfig& cfg, int K, int N);

/// Packs quantized B bits (row-major KxN with leading dimension ldb) into
/// the panel layout for `cfg` (the group width is a pure function of the
/// normalized config and the host ISA).
PackedBPanels gemm_pack_b(const MacConfig& cfg, int K, int N,
                          const uint32_t* Bq, int ldb, int threads = 0);

/// gemm_pack_b into caller-owned storage: `out->bt` is resized in place, so
/// a panel buffer reserved once (gemm_packed_b_words of the largest
/// operand) can absorb every repack without allocating. The compiled
/// model packs its Linear W^T planes through it; its conv ops pack their
/// wide panels group by group with gemm_pack_conv_groups instead.
void gemm_pack_b_into(const MacConfig& cfg, int K, int N, const uint32_t* Bq,
                      int ldb, PackedBPanels* out, int threads = 0);

/// The im2col panel of one conv over a batch: `batch` samples of C x H x W
/// activations under a k x k window at `stride` and `pad`, with oh x ow
/// outputs per sample. Row (c*k + ki)*k + kj, column s*L + y*ow + x
/// (L = oh*ow) holds sample s's activation (c, y*stride - pad + ki,
/// x*stride - pad + kj), or 0 where that lies in the padding: the K x N
/// matrix im2col writes for each sample side by side.
struct ConvPanelShape {
  int batch = 1, C = 0, H = 0, W = 0, k = 1, stride = 1, pad = 0;
  int oh = 0, ow = 0;
  int K() const { return C * k * k; }
  int L() const { return oh * ow; }
  int64_t N() const { return static_cast<int64_t>(batch) * L(); }
};

/// Packs column groups [group_lo, group_hi) of panel `p`, G lanes a group,
/// straight from `codes` (the batch's activations quantized to the
/// multiplier format, C*H*W words per sample, samples contiguous) into
/// `bt`: group g's K*G words land at bt + g*G*K in PackedBPanels::bt's
/// layout. The words equal what im2col, gemm_quantize and
/// gemm_pack_b_into write for the same groups: padding and lanes past N
/// hold the +0 code, which is what im2col's 0.0f quantizes to. At stride 1
/// the lanes of one output row are a bounds-clipped copy of consecutive
/// codes. Serial: the caller splits the groups across threads.
void gemm_pack_conv_groups(const ConvPanelShape& p, int G,
                           const uint32_t* codes, int64_t group_lo,
                           int64_t group_hi, uint32_t* bt);

/// Packs the transpose of panel `p` (the N x K cols^T operand of a conv's
/// weight gradient, N = p.N()) straight from `codes`, G lanes a group:
/// groups run over the K conv taps, chains over the N panel columns. Rows
/// [j_lo, j_hi) of every group land in `bt` in PackedBPanels::bt's layout
/// for a K-column operand with chain length N (row j of group g at
/// bt + (g*N + j)*G). The words equal what im2col, a transpose,
/// gemm_quantize and gemm_pack_b_into write for those rows: padding and
/// lanes past K hold the +0 code. Serial: the caller splits the rows.
void gemm_pack_conv_taps(const ConvPanelShape& p, int G,
                         const uint32_t* codes, int64_t j_lo, int64_t j_hi,
                         uint32_t* bt);

/// Threads a fused GEMM of M x N x K MAC steps runs on: one per 8192
/// steps, at most the pool's parallelism, and at most `threads` when it is
/// positive. Below the grain the GEMM runs inline on the caller.
int gemm_mac_threads(int64_t M, int64_t N, int64_t K, int threads);

/// The fused kernel's chain loop over output rows [row_lo, row_hi) and
/// column groups [group_lo, group_hi) of C = A * B: `bt` is B's panel in
/// PackedBPanels::bt's layout at kernel.group_width() lanes a group, N is
/// B's column count (the last group may be partial), and the per-element
/// seeds follow gemm_mac_bits_packed's contract. Serial:
/// gemm_mac_bits_packed splits rows across the pool, gemm_conv_pass splits
/// groups, a conv's weight gradient splits (row, group) pairs. Every
/// output element depends only on its own chain, so any split gives the
/// same bits.
void gemm_chain_groups(const FusedMacKernel& kernel, int64_t row_lo,
                       int64_t row_hi, int64_t group_lo, int64_t group_hi,
                       int N, int K, const uint32_t* Aq, int lda,
                       const uint32_t* bt, float* C, int ldc,
                       bool accumulate, uint64_t seed, int seed_row_period,
                       int seed_col_period);

/// One bit-accurate conv GEMM as one pass over the pool: C = A * B, where
/// A is the M x p.K() codes `Aq` and B the panel `p` of the quantized
/// activations `codes` (N = p.N() columns). One parallel_for over the
/// column groups, at most gemm_mac_threads(M, N, K, threads) threads: each
/// task packs its groups into `bt` (gemm_pack_conv_groups; the caller
/// provides gemm_packed_b_words(cfg, K, N) words), runs all M rows of
/// chains into C (M x N, ldc = N), then hands its columns [j_lo, j_hi) to
/// `finish` when one is given. Seeds follow gemm_mac_bits_packed with row
/// period 0 and `seed_col_period`. The compiled conv (period L, finish =
/// its scatter and epilogue) and the training step's conv forward (period
/// 0, finish = the copy into (N, M, oh, ow)) and input gradient (dY as the
/// panel of a 1x1 conv over itself, no finish) all run through it.
void gemm_conv_pass(const FusedMacKernel& kernel, const ConvPanelShape& p,
                    const uint32_t* codes, int M, const uint32_t* Aq,
                    uint64_t seed, int seed_col_period, int threads,
                    uint32_t* bt, float* C,
                    const std::function<void(int64_t, int64_t)>& finish);

/// The fused kernel on operands already quantized to cfg.mul_fmt bit
/// patterns, with B packed by gemm_pack_b under the same (normalized) cfg:
/// gemm_chain_groups over every column group, rows split across the pool.
/// This is the inner entry point of gemm_mac and of the compiled model's
/// Linear ops; a conv's GEMMs run gemm_conv_pass or, for its weight
/// gradient, gemm_chain_groups over a gemm_pack_conv_taps panel.
///
/// `seed_row_period` / `seed_col_period`: when non-zero, the per-element
/// LFSR seed derives from (i % row_period, j % col_period) instead of
/// (i, j). This is the grouped same-shape execution contract
/// (docs/SERVING.md): several independent problems concatenated along one
/// axis of a single wide GEMM reproduce, element for element, the seeds
/// their standalone dispatches would have used — col_period = L makes
/// column s*L+t of a B-concatenated panel seed as column t, row_period = 1
/// makes every row of an A-stacked panel seed as row 0. 0 (the default)
/// means the identity mapping; results are unchanged.
void gemm_mac_bits_packed(const MacConfig& cfg, int M, int N, int K,
                          const uint32_t* Aq, int lda, const PackedBPanels& B,
                          float* C, int ldc, bool accumulate = false,
                          uint64_t seed = kDefaultSeed, int threads = 0,
                          int seed_row_period = 0, int seed_col_period = 0);

/// Bit-accurate GEMM: C[MxN] = A[MxK] * B[KxN] (+ C when `accumulate`),
/// row-major with leading dimensions. Every output element is produced by
/// one MAC-unit accumulation chain over k, exactly as in the paper's
/// software-emulated training flow: A and B are quantized to cfg.mul_fmt
/// (RN), the products are exact, and each addition rounds in cfg.acc_fmt
/// through the configured adder. The per-element LFSR seed is derived from
/// (seed, i, j) so results are reproducible and independent of threading.
///
/// The final accumulator is read back as float into C (exact: every
/// accumulator format here is narrower than binary32's significand).
///
/// This entry point runs the fused emulation engine: cache-blocked loops
/// over packed operand panels, a decoded accumulator that is packed only at
/// chain boundaries, a process-wide product table for FP8-class multiplier
/// formats, LFSR registers stepped inside the kernel, and the persistent
/// thread pool. It is bit-identical to gemm_mac_reference (asserted by
/// tests/mac/test_gemm_fastpath.cpp); see docs/PERF.md for the
/// architecture.
void gemm_mac(const MacConfig& cfg, int M, int N, int K, const float* A,
              int lda, const float* B, int ldb, float* C, int ldc,
              bool accumulate = false, uint64_t seed = kDefaultSeed,
              int threads = 0, int seed_row_period = 0,
              int seed_col_period = 0);

/// The seed implementation: one MacUnit per output element stepping through
/// packed bits, kept as the golden reference the fused engine is verified
/// against.
void gemm_mac_reference(const MacConfig& cfg, int M, int N, int K,
                        const float* A, int lda, const float* B, int ldb,
                        float* C, int ldc, bool accumulate = false,
                        uint64_t seed = kDefaultSeed, int threads = 0,
                        int seed_row_period = 0, int seed_col_period = 0);

/// Float reference GEMM with the same interface (the FP32 baseline).
void gemm_ref(int M, int N, int K, const float* A, int lda, const float* B,
              int ldb, float* C, int ldc, bool accumulate = false,
              int threads = 0);

/// Quantizes a row-major float matrix into `fmt` bit patterns (RN-even),
/// bit-identical to SoftFloat::from_double per element, through the
/// branch-free FpQuantizer (fpemu/quantizer.hpp) — its AVX-512 build when
/// the MAC kernel's cpuid gate passes. The elements split across the
/// thread pool by count. This is the operand-quantization step of every
/// GEMM path except gemm_mac_reference, which keeps from_double as the
/// golden model; the compiled model's weight planes and activation panels
/// share it. dst is dense rows x cols.
void gemm_quantize(const FpFormat& fmt, int rows, int cols, const float* src,
                   int ld, uint32_t* dst, int threads = 0);

/// gemm_quantize of the transpose: dst[c * rows + r] = quantized
/// src[r * cols + c] for a dense rows x cols src — the transposed weight
/// planes (W^T of the compiled Linear ops and of a training conv's input
/// gradient). Quantization is elementwise, so this equals quantizing a
/// materialized transpose.
void gemm_quantize_transposed(const FpFormat& fmt, int rows, int cols,
                              const float* src, uint32_t* dst,
                              int threads = 0);

}  // namespace srmac
