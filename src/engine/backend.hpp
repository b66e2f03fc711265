#pragma once

#include <cstdint>
#include <string>

#include "mac/mac_config.hpp"

namespace srmac {

/// Dimensions and operand pointers of one C[MxN] = A[MxK] * B[KxN] (+C)
/// dispatch, row-major with leading dimensions — the argument bundle every
/// backend consumes, so adding a backend does not mean growing a dozen
/// parameter lists.
struct GemmArgs {
  int M = 0, N = 0, K = 0;
  const float* A = nullptr;
  int lda = 0;
  const float* B = nullptr;
  int ldb = 0;
  float* C = nullptr;
  int ldc = 0;
  bool accumulate = false;
  uint64_t seed = kDefaultSeed;
  int threads = 0;  ///< 0 = hardware concurrency
};

/// Abstract compute backend: how a GEMM physically executes. Registered in
/// BackendRegistry under a string key, selected by name from examples,
/// benches, and tests, and carried (non-owning) by ComputeContext. All
/// implementations are stateless with respect to a call (const methods,
/// shared across threads); per-element seeds keep results independent of
/// thread count. A new backend drops in by registering a new name — no call
/// site changes.
///
/// gemm() must be safe to call concurrently on one instance: MatmulBatch
/// runs a batch's problems one per pool thread through it, on every
/// backend. Such a call runs inside a pool task, so its own parallel_for
/// calls run inline on that thread.
class MatmulBackend {
 public:
  virtual ~MatmulBackend() = default;

  /// Registry key, e.g. "sharded".
  virtual std::string name() const = 0;

  /// Whether this backend quantizes operands into cfg.mul_fmt (the MAC
  /// emulation paths) or consumes floats untouched (fp32).
  virtual bool bit_accurate() const = 0;

  /// Whether gemm() is the fused kernel itself (gemm_mac: its operand
  /// quantization, its per-element LFSR seeding, its chain). ModelCompiler
  /// lowers a bit-accurate backend only when this holds: the compiled
  /// program then runs the kernel on its own precompiled weight planes and
  /// reproduces this backend's bits. True for "sharded"; false for
  /// "reference" and "systolic", whose sessions serve per sample through
  /// gemm(). A user backend opts in only if its gemm() is gemm_mac.
  virtual bool runs_fused_kernel() const { return false; }

  virtual void gemm(const MacConfig& cfg, const GemmArgs& args) const = 0;
};

}  // namespace srmac
