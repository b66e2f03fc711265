#pragma once

#include <deque>
#include <exception>
#include <vector>

#include "engine/compute_context.hpp"
#include "tensor/tensor.hpp"

namespace srmac {

/// C[MxN] = A[MxK] * B[KxN] (+C), through the context's compute backend.
/// Every multiply-accumulate of DNN training (FWD and BWD GEMMs) passes
/// through here, as in the paper's Sec. IV emulation flow: the context's
/// backend executes, its policy decides the per-pass quantization, and its
/// telemetry sink (when present) records the dispatch.
void matmul(const ComputeContext& ctx, int M, int N, int K, const float* A,
            const float* B, float* C, bool accumulate = false);

/// C = A * B^T and C = A^T * B conveniences for the backward GEMMs.
/// (Implemented by materializing the transpose; the MAC chain order over k
/// matches the forward convention.)
void matmul_nt(const ComputeContext& ctx, int M, int N, int K, const float* A,
               const float* B_t /*NxK*/, float* C, bool accumulate = false);
void matmul_tn(const ComputeContext& ctx, int M, int N, int K,
               const float* A_t /*KxM*/, const float* B, float* C,
               bool accumulate = false);

/// matmul with one operand already quantized to ctx.quant_fmt() bit
/// patterns (row-major, MxK resp. KxN) — the layers' cached weight planes.
/// Only valid on bit-accurate contexts. Backends without native
/// pre-quantized support receive the plane decoded back to floats; their
/// internal requantization is lossless on already-representable values, so
/// results match the float path bit for bit.
void matmul_qa(const ComputeContext& ctx, int M, int N, int K,
               const uint32_t* Aq, const float* B, float* C,
               bool accumulate = false);
void matmul_qb(const ComputeContext& ctx, int M, int N, int K, const float* A,
               const uint32_t* Bq, float* C, bool accumulate = false);

/// Collects independent GEMMs and runs them as one batch — the engine's one
/// batch scheduler. flush() hands the problems out one per pool thread,
/// each through the base backend's gemm(), on every backend. Each added
/// GEMM carries its *own* context's quantization pass and fork seed (the
/// layers' weight-gradient GEMMs of one bucket run under different forks),
/// so results are bit-identical to dispatching the same GEMMs sequentially;
/// only the schedule changes. All contexts must share the base context's
/// backend, and operands must stay alive until flush() (the _nt / _tn
/// variants materialize and own their transposes internally).
class MatmulBatch {
 public:
  /// `base` supplies the backend and telemetry sink; it must outlive the
  /// batch. Deferred GEMMs run at flush().
  explicit MatmulBatch(const ComputeContext& base) : base_(base) {}
  MatmulBatch(const MatmulBatch&) = delete;
  MatmulBatch& operator=(const MatmulBatch&) = delete;

  /// Flushes what is still deferred — unless an exception is unwinding the
  /// scope that owns the batch: then the GEMMs are dropped, so a failing
  /// backend cannot throw a second time out of the destructor.
  ~MatmulBatch() {
    if (std::uncaught_exceptions() == uncaught_) flush();
  }

  /// Defers C[MxN] = A[MxK] * B[KxN] (+C) under `ctx`'s pass/seed.
  void add(const ComputeContext& ctx, int M, int N, int K, const float* A,
           const float* B, float* C, bool accumulate = false);

  /// add() with B supplied transposed (NxK) resp. A supplied transposed
  /// (KxM); the transpose is materialized into batch-owned storage.
  void add_nt(const ComputeContext& ctx, int M, int N, int K, const float* A,
              const float* B_t, float* C, bool accumulate = false);
  void add_tn(const ComputeContext& ctx, int M, int N, int K,
              const float* A_t, const float* B, float* C,
              bool accumulate = false);

  size_t size() const { return items_.size(); }

  /// Batch-owned float scratch the caller can stage an operand into before
  /// add()-ing it — e.g. a layer deferring its weight-gradient GEMM past
  /// its own scope (Sequential's cross-layer bucketing) parks the reshaped
  /// gradient here. Freed at flush() with everything else the batch owns.
  float* scratch(size_t n) { return owned_.emplace_back(n).data(); }

  /// Floats currently staged in batch-owned storage (scratch plus the
  /// materialized transposes of _nt/_tn adds) — what a bucketing caller
  /// bounds to keep peak memory flat when the deferred operands are large
  /// (conv im2col planes dwarf the problem count as a measure).
  size_t staged_floats() const {
    size_t n = 0;
    for (const auto& v : owned_) n += v.size();
    return n;
  }

  /// Runs every deferred GEMM through the base backend's gemm(), one per
  /// pool thread (grain 1, capped by the items' `threads`; a lone GEMM runs
  /// on the caller with the backend's own threading), records one batch
  /// plus per-problem counters into telemetry, and leaves the batch empty
  /// for reuse. When a GEMM throws, the batch is left empty as well and the
  /// first exception is rethrown once every GEMM has finished.
  void flush();

 private:
  /// One deferred GEMM: the problem plus the MAC configuration it runs
  /// under.
  struct Item {
    MacConfig cfg;
    GemmArgs args;
  };

  ComputeContext base_;
  std::vector<Item> items_;
  std::deque<std::vector<float>> owned_;  ///< scratch and transposes
  int uncaught_ = std::uncaught_exceptions();
};

/// Elementwise helpers used by the layers (always FP32: the paper quantizes
/// the GEMM inputs/accumulations, not pointwise math).
void add_inplace(Tensor& a, const Tensor& b);
void scale_inplace(Tensor& a, float s);
Tensor transpose2d(const Tensor& x);

}  // namespace srmac
