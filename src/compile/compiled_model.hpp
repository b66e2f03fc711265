#pragma once

#include <cstdint>
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
/// input shape — the zero-overhead serve path (docs/COMPILER.md).
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
/// The bitwise contract is the same one the serving stack already holds:
/// forward_batch(xs) leaves each xs[i] bit-identical to
/// model.forward(engine.context(), xs[i], false) offline, and therefore to
/// eager serving under the same engine. It holds because each compiled GEMM
/// replays the exact (normalized MacConfig, shape, quantized operand bits,
/// fork-chain seed) of the eager walk through the same fused kernel, and
/// everything between GEMMs replays the layers' exact float expressions
/// (tests/compile/compiled_vs_eager_test.cpp fuzzes this across models,
/// adder kinds, formats, shard counts, and batch sizes).
///
/// Invalidation: compiled weight planes are keyed on Param::version, the
/// same counter the eager WeightQuantCache keys on. refresh() compares and
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
    uint64_t gemm_ops = 0;       ///< GEMM ops per compiled forward sample
  };

  /// Runs one coalesced batch of independent single-sample activations
  /// (each xs[i] with batch dimension 1) through the compiled program,
  /// replacing each xs[i] with the model output for that sample. Throws
  /// CompileException kShapeMismatch when a sample does not match the
  /// compiled input shape, kCapacityExceeded when xs.size() exceeds the
  /// compiled capacity.
  void forward_batch(std::vector<Tensor>& xs);

  /// Rebuilds every weight plane whose Param::version moved since it was
  /// last built (optimizer step, checkpoint load); returns how many planes
  /// were rebuilt and records them as compile_rebuilds. Cheap when nothing
  /// changed (one integer compare per GEMM op) — the serving executor calls
  /// it before every micro-batch.
  uint64_t refresh();

  int capacity() const { return capacity_; }
  const std::vector<int>& input_shape() const { return input_shape_; }
  const std::vector<int>& output_shape() const { return output_shape_; }
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
  };

  float* buf(int idx) { return buffers_[static_cast<size_t>(idx)].data(); }
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
  std::vector<int> input_shape_, output_shape_;  ///< per sample, no batch dim
  int64_t in_numel_ = 0, out_numel_ = 0;

  std::vector<Op> ops_;
  std::vector<std::vector<float>> buffers_;  ///< [i]: capacity * numel floats
  std::vector<int64_t> buf_numel_;           ///< per-sample numel of buffer i
  int out_buf_ = 0;                          ///< buffer holding the output

  // Shared per-request scratch, sized at compile for the largest op: every
  // GEMM op runs the whole micro-batch as one wide kernel (grouped
  // same-shape execution, docs/SERVING.md).
  std::vector<float> cols_;      ///< wide im2col panel, capacity * max(K*L)
  std::vector<uint32_t> qcols_;  ///< quantized wide panel, capacity*max(K*L)
  std::vector<uint32_t> qact_;   ///< quantized Linear activations, cap*max(K)
  PackedBPanels panel_;          ///< conv B pack target, the wide panel
  std::vector<float> gout_;      ///< wide conv GEMM output, cap * max(M*L)

  Stats stats_;
  uint64_t gemms_per_sample_ = 0;
  uint64_t macs_per_sample_ = 0;
  uint64_t act_bytes_per_sample_ = 0;  ///< activation quantize bytes
};

}  // namespace srmac
