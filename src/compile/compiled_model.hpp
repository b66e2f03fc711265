#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "compile/compile_error.hpp"
#include "engine/telemetry.hpp"
#include "mac/gemm.hpp"
#include "mac/mac_config.hpp"
#include "nn/module.hpp"
#include "tensor/tensor.hpp"

namespace srmac {

/// A model lowered ahead of time against one EmuEngine scenario and one
/// input shape — the executor every serving session runs
/// (docs/COMPILER.md).
///
/// What "compiled" means here, concretely:
///  - every weight plane is quantized into the scenario's multiplier format
///    once at compile time (and the Linear W^T planes are packed into the
///    fused kernel's panel layout once), instead of per micro-batch;
///  - every activation, im2col, and quantized-operand buffer is preplanned
///    for the compiled (input shape, max batch), so a steady-state forward
///    allocates nothing except the output tensors handed to clients;
///  - BatchNorm inference affines are folded into the producing GEMM's
///    tail, and bias/ReLU/residual-join elementwise work is fused into the
///    same single output pass — no intermediate tensors between layers.
///
/// The bitwise contract: forward_batch(xs, 0, stages()) leaves each xs[i]
/// bit-identical to model.forward(engine.context(), xs[i], false) offline.
/// It holds because each compiled GEMM replays the exact (normalized
/// MacConfig, shape, quantized operand bits, fork-chain seed) of the
/// layers' own forward through the same fused kernel, and everything
/// between GEMMs replays the layers' exact float expressions
/// (tests/compile/compiled_vs_eager_test.cpp fuzzes this across models,
/// adder kinds, formats, shard counts, and batch sizes).
///
/// Stages: the program is split after each top-level Sequential child
/// (together with the BatchNorm/ReLU children fused into it; no fusion
/// crosses a boundary). Running stages [a, b) and then [b, c) with the
/// activations copied out and back in between gives the bits of one
/// [a, c) call — the unit continuous batching advances a request by.
///
/// Invalidation: compiled weight planes are keyed on Param::version, the
/// same counter the layers' WeightQuantCache keys on. refresh() compares and
/// rebuilds stale planes — an optimizer step or checkpoint load is picked
/// up by the next micro-batch, exactly once per plane per bump. BN
/// gamma/beta and Linear bias are read live from their Params at execution
/// time (they fold into elementwise tails, not packed planes), so they can
/// never go stale; BN running statistics are not Params and do not change
/// during serving, so their fold is computed once at compile.
///
/// Threading: forward_batch/refresh must be called from one thread at a
/// time (the serving executor's existing single-executor invariant); the
/// heavy loops inside parallelize over the process-wide thread pool.
class CompiledModel {
 public:
  /// Compile-time lowering statistics (also recorded into the engine's
  /// telemetry sink: compile_planes_packed / compile_folds /
  /// compile_fusions).
  struct Stats {
    uint64_t planes_packed = 0;  ///< weight planes quantized/packed/copied
    uint64_t folds = 0;          ///< ops folded away (BN affines, Flattens)
    uint64_t fusions = 0;        ///< epilogue steps fused into GEMM tails
    uint64_t gemm_ops = 0;       ///< GEMM ops: kernel calls per forward
  };

  /// Runs stages [first, last) over one coalesced batch of independent
  /// single-sample activations (each xs[i] with batch dimension 1): copies
  /// the samples into stage `first`'s input buffer, runs the stages' ops,
  /// and replaces each xs[i] with stage `last - 1`'s output for that
  /// sample. (0, stages()) is the whole model. Throws std::out_of_range on
  /// a range outside [0, stages()], CompileException kShapeMismatch when a
  /// sample does not match stage `first`'s input shape, kCapacityExceeded
  /// when xs.size() exceeds the compiled capacity.
  void forward_batch(std::vector<Tensor>& xs, size_t first, size_t last);

  /// Rebuilds every weight plane whose Param::version moved since it was
  /// last built (optimizer step, checkpoint load); returns how many planes
  /// were rebuilt and records them as compile_rebuilds. Cheap when nothing
  /// changed (one integer compare per GEMM op) — the serving executor calls
  /// it before every micro-batch.
  uint64_t refresh();

  size_t stages() const { return stages_.size(); }
  int capacity() const { return capacity_; }
  const std::vector<int>& input_shape() const { return input_shape_; }
  const Stats& stats() const { return stats_; }

 private:
  friend class ModelCompiler;
  CompiledModel() = default;

  enum class OpKind {
    kConvGemm,        ///< im2col + quantize + pack + fused GEMM + epilogue
    kLinearGemm,      ///< quantize activations + fused GEMM against the
                      ///< pre-packed W^T plane + epilogue
    kMaxPool,         ///< MaxPool2d's exact window max
    kGlobalAvgPool,   ///< GlobalAvgPool's exact double-accumulated mean
    kEltwise,         ///< copy src -> dst applying the epilogue (standalone
                      ///< BN/ReLU that had no GEMM tail to fuse into)
    kJoin,            ///< dst = src + src2 (+ReLU): a residual block's exit
  };

  /// A folded BatchNorm2d inference affine: the per-channel
  /// (mean, invstd) pair is computed once at compile from the (serving-
  /// static) running statistics, exactly as BatchNorm2d::forward computes
  /// it; gamma/beta are read live from their Params at execution.
  struct Affine {
    Param* gamma = nullptr;
    Param* beta = nullptr;
    std::vector<float> mean;    ///< (float)running_mean[c]
    std::vector<float> invstd;  ///< (float)(1.0 / sqrt((double)var + eps))
  };

  struct Op {
    OpKind kind{};
    int src = 0;    ///< input buffer index
    int src2 = -1;  ///< kJoin: residual buffer index
    int dst = 0;    ///< output buffer index

    // GEMM problem (kConvGemm: M=out_ch, N=oh*ow, K=in_ch*k*k;
    // kLinearGemm: M=1, N=out_f, K=in_f).
    int M = 0, N = 0, K = 0;
    bool bits = false;  ///< bit-accurate (fused kernel) vs fp32 (gemm_ref)
    MacConfig cfg;      ///< normalized per-op config (policy + layer rules)
    uint64_t seed = 0;  ///< absolute fork-chain seed of this GEMM

    // Conv / pooling geometry.
    int ch = 0, H = 0, W = 0, kk = 0, stride = 0, pad = 0, oh = 0, ow = 0;

    // Weight planes (owned by the compiled model, version-keyed).
    Param* w = nullptr;
    uint64_t w_version = 0;
    std::vector<uint32_t> aq;  ///< kConvGemm bits: quantized W plane (MxK)
    PackedBPanels bpanels;     ///< kLinearGemm bits: pre-packed W^T (KxN)
    std::vector<float> wt;     ///< kLinearGemm fp32: materialized W^T (KxN)

    // Fused epilogue, applied in one pass over the op's output slice in
    // the layers' order: affine, then bias, then ReLU.
    std::optional<Affine> affine;
    Param* bias = nullptr;  ///< kLinearGemm: read live (never stale)
    bool relu = false;

    uint64_t act_bytes = 0;  ///< per sample: activation bytes quantized
  };

  /// One top-level child of the model: its ops end at op_end (they start
  /// at the previous stage's op_end), its per-sample output lives in
  /// out_buf with shape out_shape. Stage i's input is stage i-1's output
  /// (stage 0's: buffer 0, input_shape_).
  struct Stage {
    size_t op_end = 0;
    int out_buf = 0;
    std::vector<int> out_shape;
  };

  float* buf(int idx) { return buffers_[static_cast<size_t>(idx)].get(); }
  void rebuild_plane(Op& op);
  void exec_conv(const Op& op, int batch);
  void exec_linear(const Op& op, int batch);
  void exec_maxpool(const Op& op, int batch);
  void exec_gap(const Op& op, int batch);
  void exec_eltwise(const Op& op, int batch);
  void exec_join(const Op& op, int batch);
  void apply_epilogue(const Op& op, float* out, int64_t numel) const;

  Telemetry* telemetry_ = nullptr;
  int threads_ = 0;
  int capacity_ = 0;
  std::vector<int> input_shape_;  ///< per sample, no batch dim

  std::vector<Op> ops_;
  std::vector<Stage> stages_;
  /// Buffers and scratch are allocated uninitialized: every op writes each
  /// element it later reads within the same forward_batch call, and a
  /// page is first touched by the first batch that reaches it, so session
  /// setup does not pay to zero capacity-sized regions.
  std::vector<std::unique_ptr<float[]>> buffers_;  ///< [i]: cap * numel
  std::vector<int64_t> buf_numel_;  ///< per-sample numel of buffer i

  // Shared per-request scratch, sized at compile for the largest op: every
  // GEMM op runs the whole micro-batch as one wide kernel (grouped
  // same-shape execution, docs/SERVING.md).
  std::unique_ptr<float[]> cols_;      ///< wide im2col panel, cap*max(K*L)
  std::unique_ptr<uint32_t[]> qcols_;  ///< quantized wide panel, cap*max(K*L)
  std::unique_ptr<uint32_t[]> qact_;   ///< quantized Linear rows, cap*max(K)
  PackedBPanels panel_;                ///< conv B pack target, the wide panel
  std::unique_ptr<float[]> gout_;      ///< wide conv GEMM out, cap*max(M*L)

  Stats stats_;
  double kernel_s_ = 0;  ///< GEMM kernel seconds of the running call
};

}  // namespace srmac
