#pragma once

#include <cstdint>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/session_spec.hpp"
#include "tensor/tensor.hpp"

namespace srmac {

/// Typed failure codes of the serving stack. Every failed request future
/// resolves with a ServeException carrying one of these, so callers (and
/// the ClusterController's routing/retry logic) can tell shutdown from
/// overload from a blown deadline from a faulted replica — the "no request
/// ever hangs or fails anonymously" contract of docs/SERVING.md.
enum class ServeError {
  kStopped,     ///< session stopped (or replica killed) before execution
  kOverloaded,  ///< load shed: admission rejected after bounded retries, or
                ///< every replica's circuit breaker is open
  kDeadline,    ///< the request's deadline expired (at admission or at
                ///< micro-batch collect time)
  kFault,       ///< the batch's forward pass failed (injected or real)
};

inline const char* serve_error_name(ServeError e) {
  switch (e) {
    case ServeError::kStopped: return "stopped";
    case ServeError::kOverloaded: return "overloaded";
    case ServeError::kDeadline: return "deadline";
    case ServeError::kFault: return "fault";
  }
  return "unknown";
}

/// What a failed request future throws: std::runtime_error (so legacy
/// catch sites keep working) plus the machine-readable code above.
class ServeException : public std::runtime_error {
 public:
  ServeException(ServeError code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  ServeError code() const { return code_; }

 private:
  ServeError code_;
};

/// What a served request resolves to: the model output for that one sample
/// plus the request's own observability slice (how it was scheduled and
/// what it waited for). Latencies are measured on the session's ServeClock.
struct InferResult {
  Tensor output;          ///< logits/activations, batch dimension 1
  int batch_size = 0;     ///< requests coalesced into the micro-batch it rode
  uint64_t queue_us = 0;  ///< submit -> micro-batch formation
  uint64_t total_us = 0;  ///< submit -> completion
  uint64_t trace_id = 0;  ///< cluster-assigned trace (0: direct session submit)
  int replica = 0;        ///< replica that executed the request
};

/// One priority/SLO class of the admission queue (docs/SERVING.md "Grouped
/// execution & priority classes"). Class 0 is the highest priority;
/// ServeConfig::classes orders them. An empty classes vector means one
/// implicit default class — plain FIFO, the pre-class behavior.
struct PriorityClass {
  std::string name = "default";

  /// Credit share in the deterministic weighted drain: per refill round the
  /// batcher pops up to `weight` requests of this class before yielding to
  /// lower classes (clamped to >= 1). Higher classes with credits always
  /// drain first, so ordering under contention is deterministic.
  int weight = 1;

  /// Per-class latency target for the ClusterController's load score
  /// (0 = use ClusterConfig::slo_us). A replica whose p95 exceeds the
  /// submitting class's SLO scores worse for that request.
  uint64_t slo_us = 0;

  /// Per-class default deadline relative to submission (0 = fall back to
  /// the controller/session default). Lets a gold class run tight
  /// deadlines while bronze requests wait out congestion.
  uint64_t deadline_us = 0;

  /// Shedding aggressiveness: this class sheds once cluster in-flight
  /// crosses shed_at * shed_limit (clamped to (0,1]). Lower classes set
  /// lower fractions so overload sheds bronze before it touches gold.
  double shed_at = 1.0;
};

/// Deterministic shadow-sampling hash (splitmix64 finalizer): maps a trace
/// id to a uniform 64-bit value. A pure function of the trace id, so the
/// shadow set of a request stream is reproducible across runs, replicas,
/// and processes — the property the drift telemetry's comparability rests
/// on.
inline uint64_t shadow_hash(uint64_t trace_id) {
  uint64_t z = trace_id + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Whether `trace_id` falls in the shadow sample at `fraction` (in [0,1]):
/// hash(trace_id) < fraction * 2^64. fraction >= 1 selects everything,
/// <= 0 nothing; the selected sets are nested (a request shadowed at 10%
/// is also shadowed at 20%), which keeps drift series comparable across
/// fraction changes.
inline bool shadow_selects(uint64_t trace_id, double fraction) {
  if (fraction >= 1.0) return true;
  if (fraction <= 0.0) return false;
  const double scaled = fraction * 18446744073709551616.0;  // 2^64
  return static_cast<double>(shadow_hash(trace_id)) < scaled;
}

/// Shadow A/B configuration of a serving session (docs/SERVING.md "Shadow
/// A/B & drift telemetry"): a second scenario the session re-runs a
/// deterministic sample of requests through *after* the primary forward
/// resolved their futures. Shadow work never touches primary outputs
/// (bitwise-identity tests in tests/serve/shadow_serving_test.cpp) and
/// never blocks the reply path — under load it sheds with a typed counter.
struct ShadowConfig {
  /// The shadow session: scenario/backend/seed/threads. The shadow re-runs
  /// each selected sample through the model's own forward, one sample at a
  /// time. The scenario starts empty — enabling shadow requires naming one
  /// explicitly as well as setting fraction > 0. Callers comparing
  /// scenarios should keep seed equal to the primary engine's so divergence
  /// measures the scenario, not the seed.
  SessionSpec session = [] {
    SessionSpec s;
    s.scenario.clear();  // SessionSpec's default names the engine default
    return s;
  }();

  /// Fraction of requests to shadow, selected by shadow_selects(trace_id,
  /// fraction). 0 disables shadowing (the default); 1 shadows everything
  /// (the test/bench mode). Untraced direct submissions (trace_id 0) hash
  /// like any other id.
  double fraction = 0.0;

  /// Mismatch-rate thresholds of the drift series. Empty = the
  /// DriftTracker defaults {1e-6, 1e-3, 1e-2}.
  std::vector<double> epsilons;

  /// Overload valve: when the admission queue holds at least this many
  /// pending requests after a batch resolves, the batch's selected shadow
  /// samples are dropped and counted into serve_shadow_sheds instead of
  /// executed. 0 = never shed (benches and tests that need every sample).
  size_t shed_pending = 0;

  /// Record per-layer divergence rows: the lockstep walk re-runs the
  /// primary child by child alongside the shadow, roughly doubling
  /// per-sample shadow cost — both forwards are accounted to the shadow
  /// engine's sink. false: final-output drift only.
  bool per_layer = true;

  bool enabled() const { return fraction > 0.0 && !session.scenario.empty(); }
};

/// Knobs of one serving session (the CLI's --serve-* flags map onto these;
/// defaults here and in EngineCliArgs are kept identical, so "default"
/// serving behaves the same from every entry point).
struct ServeConfig {
  /// Coalescing cap: a micro-batch executes as soon as this many requests
  /// are pending. 1 disables coalescing (the classic request-at-a-time
  /// server).
  int max_batch = 16;

  /// How long the batcher lingers for stragglers after the first request of
  /// a micro-batch, before executing a partial batch. The knob trades p50
  /// latency for coalescing under light load; under saturation the batch
  /// fills before the deadline and the wait never happens.
  uint64_t max_wait_us = 200;

  /// Bound of the admission queue. A full queue blocks submit() — the
  /// backpressure edge — so memory stays bounded and overload surfaces at
  /// the client instead of inside the server.
  size_t queue_capacity = 64;

  /// true: the constructor starts the batcher thread (production mode).
  /// false: no thread; the owner drives micro-batches synchronously with
  /// EmuServer::run_once() — the deterministic harness the serving tests
  /// (and any single-threaded embedding) use.
  bool start_thread = true;

  /// Per-sample shape, without the batch dimension (e.g. {3,32,32} or
  /// {16}). Required: the constructor throws std::invalid_argument when it
  /// is empty. The compiler plans the session's buffers for it, and
  /// submit() rejects mismatched samples with std::invalid_argument at the
  /// admission edge — requests come from untrusted callers, and the
  /// layers' own shape assertions compile out in Release.
  std::vector<int> input_shape;

  /// Default per-request deadline, relative to submission, in microseconds
  /// on the session clock (0 = no deadline). Enforced twice: at admission
  /// (a blocking submit() waits at most the remaining budget for queue
  /// space, then fails ServeError::kDeadline) and at micro-batch collect
  /// time (an expired request fails fast instead of occupying the
  /// forward). SubmitMeta::deadline_us overrides per request.
  uint64_t deadline_us = 0;

  /// Identity of this session inside a fleet: stamped on InferResult and
  /// used as the per-replica index of the telemetry counters. 0 for a
  /// standalone session.
  int replica_id = 0;

  /// Continuous batching (docs/SERVING.md): instead of draining a whole
  /// micro-batch before forming the next, the executor advances all
  /// in-flight requests one compiled stage per wave; a finishing request
  /// releases its slot at the wave boundary and the batcher back-fills it
  /// mid-flight.
  bool continuous = false;

  /// Priority/SLO classes of the admission queue, highest priority first.
  /// Empty = one implicit default class (plain FIFO). SubmitMeta::priority
  /// selects the class (clamped into range).
  std::vector<PriorityClass> classes;

  /// Shadow A/B block: a second scenario a deterministic sample of
  /// requests is re-run through after their primary futures resolve, with
  /// divergence recorded into the engine sink's DriftTracker. Disabled by
  /// default. ClusterConfig::serve carries this too, so a fleet shadows
  /// uniformly (selection is a pure function of the trace id, so the
  /// shadow set is replica-independent).
  ShadowConfig shadow;
};

/// Per-request submission metadata (the ClusterController threads routing
/// state through here; direct EmuServer users can usually ignore it).
struct SubmitMeta {
  /// Absolute deadline on the session clock (0 = use the session's
  /// ServeConfig::deadline_us relative default, if any).
  uint64_t deadline_us = 0;
  /// Cluster-assigned monotonically increasing trace id (0 = untraced).
  uint64_t trace_id = 0;
  /// Priority class index into ServeConfig::classes (0 = highest; clamped
  /// into range; ignored when no classes are configured).
  int priority = 0;
};

/// Outcome of one executed wave (in discrete mode, one collected
/// micro-batch), reported to the session's batch observer (the
/// ClusterController's feedback edge: circuit breakers, in-flight
/// accounting, and the p95 term of the load score all update from these
/// events).
struct ReplicaBatchEvent {
  int replica = 0;
  size_t requests = 0;   ///< left the session (completed+expired+failed)
  size_t completed = 0;  ///< resolved with a result
  size_t expired = 0;    ///< failed ServeError::kDeadline at collect
  bool ran = false;      ///< a forward pass was attempted
  bool ok = false;       ///< ... and succeeded (false + ran = kFault batch)
  uint64_t exec_us = 0;  ///< forward wall time on the session clock
};

/// One admitted request in flight: the sample, the promise its future is
/// watching, and the scheduling metadata the batcher/executor act on.
struct ServeRequest {
  Tensor input;  ///< batch dimension 1 (submit() normalizes the shape)
  std::promise<InferResult> promise;
  uint64_t submit_us = 0;
  uint64_t deadline_us = 0;  ///< absolute on the session clock; 0 = none
  uint64_t trace_id = 0;
  int priority = 0;  ///< admission-queue class (clamped; 0 = highest)
};

}  // namespace srmac
