#pragma once

#include <cstdint>
#include <string>

#include "engine/backend.hpp"
#include "engine/quant_policy.hpp"
#include "engine/telemetry.hpp"

namespace srmac {

class MatmulBatch;  // tensor/tensor_ops.hpp — deferred-GEMM sink

/// How the training math executes: which backend runs the GEMMs, what the
/// quantization policy is, and the reproducibility/observability plumbing.
/// This replaces the old boolean-flag context (`bit_accurate`, `hfp8`,
/// `backward_pass`): the backend pointer selects the execution engine, the
/// QuantPolicy turns the per-pass format special cases into data, and the
/// pass marker says which of the policy's configurations applies.
///
/// Contexts are value types, copied freely (fork() per layer and step);
/// `backend` points into the process-lifetime BackendRegistry cache and
/// `telemetry` (optional) into an EmuEngine that must outlive the context.
struct ComputeContext {
  const MatmulBackend* backend = nullptr;  ///< never null after construction
  QuantPolicy policy;
  uint64_t seed = kDefaultSeed;  ///< base seed for per-element LFSRs
  int threads = 0;               ///< 0 = hardware concurrency
  Telemetry* telemetry = nullptr;
  GemmPass pass = GemmPass::kForward;

  /// When non-null (set by Sequential::backward), layers defer their
  /// weight-gradient GEMM into this batch instead of dispatching it
  /// themselves — cross-layer gradient bucketing, flushed by the owner in
  /// bounded buckets. Operands of a deferred GEMM must stay
  /// valid until that flush: layer-owned caches qualify, locals go through
  /// MatmulBatch::scratch. Results are bit-identical either way (the item
  /// carries its own pass/seed; scheduling is invisible to the bits).
  MatmulBatch* grad_batch = nullptr;

  /// FP32 baseline context (the "fp32" backend).
  static ComputeContext fp32();

  /// Bit-accurate context: the "sharded" engine under a uniform policy.
  static ComputeContext emulated(const MacConfig& cfg,
                                 uint64_t seed = kDefaultSeed);

  /// Context on the registry backend `backend_name` under `policy`.
  /// Throws std::invalid_argument for unknown names.
  static ComputeContext with_backend(const std::string& backend_name,
                                     const QuantPolicy& policy,
                                     uint64_t seed = kDefaultSeed,
                                     int threads = 0);

  /// Whether GEMMs quantize operands into the policy's MAC formats.
  bool bit_accurate() const { return backend && backend->bit_accurate(); }

  /// Derives a context with a decorrelated seed (per layer / per step).
  ComputeContext fork(uint64_t salt) const {
    ComputeContext c = *this;
    c.seed = seed * policy.fork_mult + salt;
    return c;
  }

  /// Marks the context as inside the backward pass (the trainer's top-level
  /// backward call; data-gradient GEMMs).
  ComputeContext backward() const {
    ComputeContext c = *this;
    c.pass = GemmPass::kBackwardData;
    return c;
  }

  /// Marks a weight-gradient GEMM (set by the layers around their dW GEMM).
  ComputeContext weight_grad() const {
    ComputeContext c = *this;
    c.pass = GemmPass::kBackwardWeight;
    return c;
  }

  /// Applies the policy's per-layer rule for `layer_name`, if any.
  ComputeContext for_layer(const std::string& layer_name) const;

  /// The policy's MAC configuration for this context's pass.
  const MacConfig& mac_config() const { return policy.mac_for(pass); }

  /// The multiplier-input format this context's GEMMs quantize into.
  const FpFormat& mul_fmt() const { return mac_config().mul_fmt; }

  /// mul_fmt() with the pass configuration's subnormal flag applied — the
  /// exact format operands are quantized into (cached weight planes must
  /// match it).
  FpFormat quant_fmt() const {
    const MacConfig& m = mac_config();
    return m.mul_fmt.with_subnormals(m.subnormals);
  }
};

}  // namespace srmac
