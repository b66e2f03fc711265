#pragma once

#include <stdexcept>
#include <string>

namespace srmac {

/// Typed failure codes of the model compiler (src/compile). Compilation and
/// compiled execution sit on the serving path, where inputs (model specs,
/// serve configs, request tensors) arrive from untrusted callers — so every
/// rejection is a catchable typed error, never an assert that compiles out
/// in Release (docs/COMPILER.md).
enum class CompileError {
  kUnsupportedBackend,  ///< the engine's backend is bit-accurate but its
                        ///< gemm() is not the fused kernel the compiled
                        ///< program runs (reference, systolic)
  kUnsupportedLayer,    ///< the model contains a layer the lowering pass has
                        ///< no rule for
  kShapeMismatch,       ///< the layer chain rejects the compile-time input
                        ///< shape, or a served sample does not match the
                        ///< shape the model was compiled for
  kCapacityExceeded,    ///< a batch larger than the compiled capacity
  kBadConfig,           ///< unusable options (empty input shape, capacity<1)
};

inline const char* compile_error_name(CompileError e) {
  switch (e) {
    case CompileError::kUnsupportedBackend: return "unsupported_backend";
    case CompileError::kUnsupportedLayer: return "unsupported_layer";
    case CompileError::kShapeMismatch: return "shape_mismatch";
    case CompileError::kCapacityExceeded: return "capacity_exceeded";
    case CompileError::kBadConfig: return "bad_config";
  }
  return "unknown";
}

/// What compile/serve rejections throw: std::runtime_error (so generic
/// catch sites keep working) plus the machine-readable code above — the
/// same shape as the serving stack's ServeException.
class CompileException : public std::runtime_error {
 public:
  CompileException(CompileError code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  CompileError code() const { return code_; }

 private:
  CompileError code_;
};

}  // namespace srmac
