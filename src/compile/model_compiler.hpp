#pragma once

#include <memory>
#include <vector>

#include "compile/compiled_model.hpp"
#include "engine/emu_engine.hpp"

namespace srmac {

/// Lowers a model + engine scenario into a CompiledModel (docs/COMPILER.md).
///
/// The pass walks the Sequential exactly as Sequential::forward does — the
/// same per-child fork salts and per-layer policy rules, recursing into the
/// residual blocks' fixed fork chains — and records, per GEMM, the absolute
/// seed and normalized MacConfig the layer's own forward would use. Weight
/// planes are quantized (and, for Linear, panel-packed) at compile time;
/// BatchNorm inference affines are folded into the preceding GEMM's
/// epilogue; ReLU/bias/residual joins fuse into the same output pass;
/// Flatten folds away entirely. Each top-level child (with the BN/ReLU
/// children fused into it) ends one stage of the program. Activation,
/// im2col, and quantized-operand buffers are preplanned for (input_shape,
/// max_batch): each GEMM op runs a micro-batch as ONE wide kernel (grouped
/// same-shape execution, docs/SERVING.md), with the kernel's seed periods
/// preserving each sample's standalone bits.
///
/// Typed rejections (CompileException):
///  - kUnsupportedBackend: a bit-accurate backend without prequantized
///    support (reference, systolic) — its seeding/dispatch cannot be
///    replayed against precompiled planes bit-faithfully;
///  - kUnsupportedLayer: a layer kind with no lowering rule;
///  - kShapeMismatch: the layer chain rejects the compile-time input shape;
///  - kBadConfig: empty input shape or max_batch < 1.
class ModelCompiler {
 public:
  struct Options {
    std::vector<int> input_shape;  ///< per-sample shape, no batch dimension
    int max_batch = 16;            ///< compiled capacity (ServeConfig::max_batch)
  };

  /// The engine supplies the backend, policy, seed, thread cap, and
  /// telemetry sink; it must outlive every CompiledModel built from it.
  explicit ModelCompiler(const EmuEngine& engine) : engine_(engine) {}

  /// Lowers `model` (which must outlive the result: compiled planes point
  /// at its Params for version tracking and live gamma/beta/bias reads).
  std::unique_ptr<CompiledModel> compile(Sequential& model,
                                         const Options& opts) const;

 private:
  const EmuEngine& engine_;
};

}  // namespace srmac
