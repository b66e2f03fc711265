#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mac/mac_config.hpp"

namespace srmac {

/// One B operand packed into the group-interleaved panel layout the fused
/// kernel consumes: column j is lane j % group of group j / group, stored as
/// `bt[(j / group) * group * K + k * group + j % group]`. Every column sits
/// in a group; the last one is zero-padded to the full group width, and the
/// padding lanes' outputs are never read or written. Built once by
/// gemm_pack_b and reusable across every GEMM that multiplies against the
/// same weight plane — the "sharded" backend packs each unique plane once
/// per shard and shares it across that shard's problems.
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
/// operand) can absorb every repack without allocating —
/// the steady-state path of the compiled serve executor, which packs each
/// micro-batch's wide im2col panel into the same reused panel
/// (docs/COMPILER.md).
void gemm_pack_b_into(const MacConfig& cfg, int K, int N, const uint32_t* Bq,
                      int ldb, PackedBPanels* out, int threads = 0);

/// gemm_mac_bits with B already packed by gemm_pack_b under the same
/// (normalized) cfg. This is the inner entry point of both gemm_mac_bits
/// and the sharded backend's per-problem loop.
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

/// gemm_mac on operands already quantized to cfg.mul_fmt bit patterns
/// (row-major uint32 with leading dimensions). This is the layer the nn
/// modules call with their cached weight planes so weights are not
/// requantized on every forward/backward GEMM.
void gemm_mac_bits(const MacConfig& cfg, int M, int N, int K,
                   const uint32_t* Aq, int lda, const uint32_t* Bq, int ldb,
                   float* C, int ldc, bool accumulate = false,
                   uint64_t seed = kDefaultSeed, int threads = 0,
                   int seed_row_period = 0, int seed_col_period = 0);

/// The seed implementation: one MacUnit per output element stepping through
/// packed bits, kept as the golden reference the fused engine is verified
/// against (and as the baseline of bench_gemm_throughput).
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
/// golden model; callers preparing inputs for gemm_mac_bits (e.g. the
/// layers' activation panels) share it. dst is dense rows x cols.
void gemm_quantize(const FpFormat& fmt, int rows, int cols, const float* src,
                   int ld, uint32_t* dst, int threads = 0);

/// gemm_quantize of the transpose: dst[c * rows + r] = quantized
/// src[r * cols + c] for a dense rows x cols src — the transposed weight
/// planes (W^T for the backward and Linear GEMMs). Quantization is
/// elementwise, so this equals quantizing a materialized transpose.
void gemm_quantize_transposed(const FpFormat& fmt, int rows, int cols,
                              const float* src, uint32_t* dst,
                              int threads = 0);

/// Inverse of gemm_quantize for already-quantized planes: decodes `fmt`
/// bit patterns back to floats (dst is dense rows x cols). Lossless round
/// trip — requantizing a representable value returns the same bits — so
/// this is the fallback feeding pre-quantized operands to backends without
/// native gemm_bits support.
void gemm_dequantize(const FpFormat& fmt, int rows, int cols,
                     const uint32_t* src, int ld, float* dst);

}  // namespace srmac
