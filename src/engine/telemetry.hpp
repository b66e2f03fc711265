#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/drift_tracker.hpp"
#include "mac/mac_config.hpp"

namespace srmac {

/// Aggregated counters for one backend (one row of a snapshot).
struct BackendStats {
  uint64_t gemms = 0;    ///< GEMM dispatches (batch items count individually)
  uint64_t macs = 0;     ///< MAC steps retired (sum of M*N*K)
  uint64_t batches = 0;         ///< MatmulBatch flushes
  uint64_t batch_problems = 0;  ///< problems inside those flushes
  double seconds = 0.0;  ///< wall time inside the backend
};

/// Per-replica serving counters of a fleet (ClusterController,
/// docs/SERVING.md "Fleet & fault tolerance"). Indexed by replica id in
/// TelemetrySnapshot::serve_replicas; a standalone EmuServer populates
/// index 0. Routing-side rows (sheds/retries/breaker transitions) live in
/// the controller's own sink, execution-side rows (batches/failures/
/// deadline misses) in each replica engine's sink.
struct ServeReplicaStats {
  uint64_t requests = 0;         ///< requests resolved with a result
  uint64_t batches = 0;          ///< micro-batches collected
  uint64_t failures = 0;         ///< micro-batches that failed (kFault)
  uint64_t deadline_misses = 0;  ///< requests expired at admission/collect
  uint64_t sheds = 0;            ///< requests shed after this replica refused
  uint64_t retries = 0;          ///< submissions this replica rejected and
                                 ///< the controller retried elsewhere
  uint64_t breaker_opens = 0;       ///< closed/half-open -> open transitions
  uint64_t breaker_half_opens = 0;  ///< open -> half-open (probe admitted)
  uint64_t breaker_closes = 0;      ///< half-open -> closed (probe succeeded)
};

/// Point-in-time copy of a Telemetry sink's counters.
struct TelemetrySnapshot {
  uint64_t gemms = 0;
  uint64_t macs = 0;
  uint64_t bytes_quantized = 0;  ///< operand bytes freshly quantized
  uint64_t batches = 0;          ///< MatmulBatch flushes
  uint64_t batch_problems = 0;   ///< problems inside those flushes
  /// Always empty: nothing writes it. Kept only because the repository
  /// benchmark (perfbench/) reads it for its engine.planes_packed row.
  std::vector<uint64_t> planes_packed_per_shard;
  double seconds = 0.0;
  std::map<std::string, BackendStats> per_backend;

  // ---- model-compiler counters (CompiledModel, docs/COMPILER.md) ----
  uint64_t compile_planes_packed = 0;  ///< weight planes quantized+packed by
                                       ///< compiles and refresh() rebuilds
  uint64_t compile_folds = 0;     ///< ops folded away at compile (BN affines
                                  ///< absorbed into GEMM tails, Flattens)
  uint64_t compile_fusions = 0;   ///< epilogue steps fused into GEMM tails
                                  ///< (affine/bias/ReLU/residual joins)
  uint64_t compile_rebuilds = 0;  ///< planes rebuilt by refresh() after a
                                  ///< Param::version bump (checkpoint load)
  /// Activation operand bytes the compiled executor quantized inside its
  /// own kernels, per request. Compiled serving keeps `bytes_quantized` at
  /// zero — that counter tracks the layers' matmul dispatch (training, and
  /// sessions the compiler rejects), whose per-call plane requantization
  /// is what compilation eliminates — while this one keeps the per-request
  /// activation quantization (unavoidable in any mode: inputs arrive as
  /// floats) honestly accounted.
  uint64_t compile_activation_bytes = 0;

  // ---- serving-side counters (EmuServer, docs/SERVING.md) ----
  uint64_t serve_requests = 0;  ///< requests completed by the server
  uint64_t serve_batches = 0;   ///< micro-batches executed
  /// Wide GEMM dispatches that merged several same-shape per-sample
  /// problems into one kernel (grouped execution, docs/SERVING.md), and the
  /// per-sample problems they absorbed. gemms counts the merged dispatch
  /// once; grouped_samples - gemms_grouped is the number of dispatches the
  /// merge eliminated.
  uint64_t gemms_grouped = 0;
  uint64_t grouped_samples = 0;
  /// serve_batch_hist[s] = micro-batches that coalesced exactly s requests
  /// (index 0 unused; grows to the largest batch seen).
  std::vector<uint64_t> serve_batch_hist;
  /// Per-request submit->completion latency samples in microseconds, in
  /// completion order — the series behind the percentile accessors. The
  /// sink bounds it at Telemetry::kServeLatencySampleCap by deterministic
  /// decimation (when full, every other retained sample is dropped and
  /// only every 2nd/4th/... new request is sampled), so a long-lived
  /// session keeps fixed memory and the percentiles stay representative.
  /// Benches reset() per repetition, which also keeps JSON rows per-run
  /// instead of cumulative (below the cap the series is exact).
  std::vector<uint64_t> serve_latency_us;

  // ---- fleet counters (ClusterController, docs/SERVING.md) ----
  uint64_t serve_sheds = 0;     ///< requests failed kOverloaded (load shed)
  uint64_t serve_retries = 0;   ///< rejected submissions retried elsewhere
  uint64_t serve_deadline_misses = 0;  ///< requests failed kDeadline
  uint64_t serve_failed_batches = 0;   ///< micro-batches failed kFault
  uint64_t serve_breaker_transitions = 0;  ///< total breaker state changes
  /// Per-replica rows (grows to the largest replica id seen + 1).
  std::vector<ServeReplicaStats> serve_replicas;

  // ---- shadow A/B counters (EmuServer shadow path, docs/SERVING.md) ----
  uint64_t serve_shadow_selected = 0;  ///< requests the trace-id hash picked
  uint64_t serve_shadow_runs = 0;      ///< shadow forwards actually executed
  uint64_t serve_shadow_sheds = 0;     ///< selected samples dropped under
                                       ///< overload (typed shed, never blocks
                                       ///< the reply path)
  /// Accuracy-drift series per (primary, shadow) scenario pair, copied from
  /// the sink's DriftTracker.
  std::vector<DriftPairSnapshot> drift;

  /// The q-th latency percentile (q in [0,100], e.g. 50/95/99) over the
  /// recorded samples by nearest-rank; 0 when no requests were recorded.
  double serve_latency_percentile_us(double q) const;

  /// Mean coalesced batch size (requests per micro-batch); 0 when idle.
  double serve_mean_batch() const;

  /// Projects the recorded MAC count onto the hwcost layer: the energy the
  /// paper's ASIC MAC (asic_mac_cost of `cfg`) would have spent retiring
  /// the same number of MAC steps, in microjoules. energy_nw_mhz is
  /// femtojoules per cycle at one MAC per cycle.
  double projected_mac_energy_uj(const MacConfig& cfg) const;

  /// The whole snapshot as one compact JSON object (telemetry_json.cpp):
  /// counters, per-backend rows, compile/serve/fleet sections, shadow
  /// counters, and the drift pairs. The canonical emitter — bench_serve,
  /// bench_drift, serve_daemon, and the wire TELEMETRY frame all use it
  /// instead of hand-rolling the counter fields.
  std::string to_json() const;
};

/// One fleet replica row as a JSON object, keyed the way bench_serve's
/// replica_stats rows always were ("replica", "requests", "batches", ...).
std::string to_json(const ServeReplicaStats& row, int replica);

/// One drift pair snapshot as a JSON object: scenario pair, epsilons,
/// final-output series (max/mean-abs, mismatch rates, p50/p95/p99 of the
/// per-sample max-abs), and the per-layer rows.
std::string to_json(const DriftPairSnapshot& pair);

/// Thread-safe sink for the engine's execution counters: GEMM count, MAC
/// count, bytes quantized, and per-backend wall time. One mutex-guarded
/// record per GEMM dispatch (not per element), so the cost is invisible
/// next to any real GEMM. ComputeContext carries a non-owning pointer;
/// EmuEngine owns one sink per engine, and the layer benches read the
/// counters back through snapshot().
class Telemetry {
 public:
  /// Bound on the retained serve-latency samples (512 KiB of uint64_t):
  /// past it, the sink halves resolution instead of growing.
  static constexpr size_t kServeLatencySampleCap = 65536;

  /// Records one GEMM dispatched to `backend` covering M*N*K MAC steps.
  void record_gemm(const std::string& backend, int M, int N, int K,
                   double seconds);

  /// Records one MatmulBatch flush of `problems` GEMMs totalling `macs`
  /// MAC steps. The problems also count into the per-problem gemms/macs
  /// counters (one batch of 4 reads as 4 GEMMs + 1 batch), so throughput
  /// math stays uniform whether or not work was batched.
  void record_batch(const std::string& backend, uint64_t problems,
                    uint64_t macs, double seconds);

  /// Records `values` operand words freshly quantized into `fmt`
  /// (byte-rounded per value: ceil(width/8)).
  void record_quantize(uint64_t values, const FpFormat& fmt);

  /// Records one grouped GEMM dispatch that merged `samples` same-shape
  /// per-sample problems into a single wide kernel. The dispatch itself
  /// also counts once through record_gemm, so gemms stays the number of
  /// kernels actually launched.
  void record_grouped_gemm(uint64_t samples);

  /// Records one executed micro-batch that coalesced `batch_size` requests,
  /// with each completed request's submit->completion latency in
  /// `latency_us[0..n)` (n == batch_size in the normal flow; the split
  /// exists so failed requests can count into the histogram without fake
  /// latency samples). `replica` selects the per-replica row; `ok=false`
  /// marks a failed batch (kFault) and counts into serve_failed_batches.
  void record_serve_batch(size_t batch_size, const uint64_t* latency_us,
                          size_t n, int replica = 0, bool ok = true);

  /// Records `n` requests that expired (failed ServeError::kDeadline) at
  /// `replica`'s admission edge or micro-batch collect.
  void record_serve_deadline_miss(int replica, uint64_t n);

  /// Records one request shed with ServeError::kOverloaded. `replica` is
  /// the last replica that refused it (-1: shed before any admission
  /// attempt, e.g. every breaker open — counts into the global total only).
  void record_serve_shed(int replica);

  /// Records one rejected submission to `replica` that the controller
  /// retried on another replica.
  void record_serve_retry(int replica);

  /// Records one circuit-breaker transition of `replica` into
  /// CircuitBreaker::State `to_state` (0 closed / 1 open / 2 half-open —
  /// kept as int so the telemetry layer stays decoupled from serve/).
  void record_breaker_transition(int replica, int to_state);

  /// Records `n` requests the shadow trace-id hash selected for A/B
  /// re-execution (EmuServer shadow path).
  void record_serve_shadow_selected(uint64_t n);

  /// Records `n` shadow forwards that actually executed.
  void record_serve_shadow_run(uint64_t n);

  /// Records `n` selected samples dropped because the session was loaded
  /// past ShadowConfig::shed_pending — shadow work sheds, it never delays
  /// the reply path.
  void record_serve_shadow_shed(uint64_t n);

  /// The accuracy-drift sink (shadow A/B comparisons land here; snapshots
  /// carry its pairs in TelemetrySnapshot::drift).
  DriftTracker& drift() { return drift_; }
  const DriftTracker& drift() const { return drift_; }

  /// Records one ModelCompiler lowering: how many weight planes it
  /// quantized+packed, how many ops it folded away, and how many epilogue
  /// steps it fused into GEMM tails.
  void record_compile(uint64_t planes_packed, uint64_t folds,
                      uint64_t fusions);

  /// Records `planes` weight planes CompiledModel::refresh() rebuilt after
  /// observing Param::version bumps (optimizer step or checkpoint load).
  void record_compile_rebuild(uint64_t planes);

  /// Records one compiled forward call that made `gemms` GEMM kernel calls
  /// (one per GEMM op: the op runs the whole batch as one wide kernel)
  /// totalling `macs` MAC steps in `seconds` of kernel time (im2col,
  /// quantize, pack and epilogues excluded), with `activation_bytes` bytes
  /// of activation operands freshly quantized for those kernels
  /// (byte-rounded per value at the per-op format). Lands in the
  /// gemms/macs/seconds totals under the "compiled" per-backend row and in
  /// compile_activation_bytes — never in bytes_quantized, which stays the
  /// dispatch layer's counter (and zero in compiled steady state).
  void record_compiled_forward(uint64_t gemms, uint64_t macs,
                               uint64_t activation_bytes, double seconds);

  TelemetrySnapshot snapshot() const;

  /// Zeroes every counter — GEMM/MAC/batch totals, per-backend rows, and
  /// the serving counters above. Benches call this per repetition so each
  /// JSON row reflects one run, not the engine's cumulative history.
  void reset();

 private:
  mutable std::mutex mu_;
  TelemetrySnapshot totals_;
  DriftTracker drift_;  ///< own mutex; snapshot() merges it in
  // Decimation state of the bounded serve-latency reservoir: only every
  // serve_lat_stride_-th completed request is sampled once the cap has
  // been hit (stride doubles on each compaction).
  uint64_t serve_lat_stride_ = 1;
  uint64_t serve_lat_seen_ = 0;
};

}  // namespace srmac
