#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

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

/// GemmArgs with operands already quantized to cfg.mul_fmt bit patterns —
/// the cached weight-plane path of the nn layers.
struct GemmBitsArgs {
  int M = 0, N = 0, K = 0;
  const uint32_t* Aq = nullptr;
  int lda = 0;
  const uint32_t* Bq = nullptr;
  int ldb = 0;
  float* C = nullptr;
  int ldc = 0;
  bool accumulate = false;
  uint64_t seed = kDefaultSeed;
  int threads = 0;
};

/// One element of a batched GEMM submission: the problem plus the MAC
/// configuration it runs under. Items of one batch may differ in shape,
/// seed, and configuration (e.g. a layer's weight-gradient and
/// data-gradient GEMMs run different QuantPolicy passes), and every item
/// produces exactly the bits a sequential gemm(cfg, args) dispatch would —
/// per-element seeds make batched execution order-independent.
///
/// `Aq` / `Bq`, when non-null, carry that operand already quantized to the
/// (normalized) cfg's multiplier format — the layers' cached weight planes
/// — and take precedence over the float pointer, which may then be null.
/// Valid on every backend: supports_prequantized() implementations consume
/// the bits directly, the rest receive the plane decoded back to floats by
/// the dispatch (lossless round trip), so results match the float
/// submission bit for bit either way.
struct GemmBatchItem {
  MacConfig cfg;
  GemmArgs args;
  const uint32_t* Aq = nullptr;  ///< pre-quantized A plane (lda from args)
  const uint32_t* Bq = nullptr;  ///< pre-quantized B plane (ldb from args)
};

/// Abstract compute backend: how a GEMM physically executes. Registered in
/// BackendRegistry under a string key, selected by name from examples,
/// benches, and tests, and carried (non-owning) by ComputeContext. All
/// implementations are stateless with respect to a call (const methods,
/// shared across threads); per-element seeds keep results independent of
/// thread count. Future backends (sharded/NUMA, remote) drop in by
/// registering a new name — no call site changes.
class MatmulBackend {
 public:
  virtual ~MatmulBackend() = default;

  /// Registry key, e.g. "sharded".
  virtual std::string name() const = 0;

  /// Whether this backend quantizes operands into cfg.mul_fmt (the MAC
  /// emulation paths) or consumes floats untouched (fp32). Drives the
  /// layers' weight-plane caching decision.
  virtual bool bit_accurate() const = 0;

  /// Whether gemm_bits() is implemented natively. Backends without native
  /// support still accept pre-quantized operands through the engine's
  /// dequantize-and-requantize fallback (lossless: RN of a representable
  /// value is exact), they just forgo the requantization saving.
  virtual bool supports_prequantized() const { return false; }

  /// Whether gemm_batch() does better than the default sequential loop.
  /// Callers holding several independent GEMMs (the layers' backward pair,
  /// the cross-layer weight-gradient buckets) should batch when this is
  /// true; batching on other backends is allowed and bit-identical, just
  /// not faster.
  virtual bool supports_batch() const { return false; }

  virtual void gemm(const MacConfig& cfg, const GemmArgs& args) const = 0;

  /// Pre-quantized-operand GEMM; only called when supports_prequantized().
  virtual void gemm_bits(const MacConfig& cfg, const GemmBitsArgs& args) const;

  /// Executes `count` independent GEMMs. The default implementation loops
  /// gemm(); the "sharded" backend routes whole problems to topology-aware
  /// worker shards with shard-local plane caches. Results are bit-identical
  /// to the sequential loop for every implementation.
  virtual void gemm_batch(const GemmBatchItem* items, size_t count) const;
};

/// Optional mix-in for backends that schedule across worker shards (the
/// "sharded" backend). Counters are cumulative over the backend instance's
/// lifetime; the telemetry dispatch in MatmulBatch::flush snapshots them
/// around a gemm_batch call and records the delta. With several engines
/// sharing one registry instance concurrently the deltas may interleave —
/// the counters are scheduling diagnostics, not accounting.
class ShardStatsSource {
 public:
  virtual ~ShardStatsSource() = default;

  struct Stats {
    uint64_t migrations = 0;  ///< problems executed off their routed shard
    std::vector<uint64_t> planes_packed;  ///< B planes packed, per shard
    /// Bytes of float B planes the backend quantized itself (a shared
    /// plane quantizes once per shard that packs it) — the telemetry
    /// dispatch records these instead of its once-per-batch dedup
    /// estimate, so bytes_quantized agrees with planes_packed_per_shard.
    uint64_t plane_bytes_quantized = 0;
  };
  virtual Stats shard_stats() const = 0;
};

}  // namespace srmac
