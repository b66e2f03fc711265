#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "compile/compiled_model.hpp"
#include "engine/emu_engine.hpp"
#include "nn/module.hpp"
#include "serve/class_queue.hpp"
#include "serve/fault_injector.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/serve_types.hpp"

namespace srmac {

/// Async inference session: the request-level entry point over the
/// emulation stack (docs/SERVING.md). One EmuServer owns a model plus the
/// EmuEngine scenario it serves under, accepts concurrent single-sample
/// submissions from any thread, and coalesces them into dynamic
/// micro-batches. Construction lowers the model through ModelCompiler for
/// ServeConfig::input_shape; each micro-batch then runs the compiled
/// program, whose GEMM ops merge the batch into one wide kernel — so a
/// weight plane is quantized and packed once per session instead of once
/// per request. A backend or layer the compiler rejects (reference,
/// systolic, a user-defined Layer) serves through the per-sample
/// model.forward loop instead.
///
/// Serving is inference-pinned: every dispatch runs the engine policy's
/// forward-pass MacConfig (ComputeContext defaults to GemmPass::kForward
/// and nothing in the serve path ever marks a backward pass), and the
/// engine's base seed anchors the per-layer fork chain — which makes a
/// served output bitwise identical to `model.forward(engine.context(), x,
/// false)` offline, regardless of how requests were coalesced
/// (tests/serve/serve_determinism_test.cpp,
/// tests/compile/compiled_vs_eager_test.cpp).
///
/// Failure semantics are typed (ServeError): a request future never hangs
/// and never fails anonymously — submit-after-stop is kStopped, a blown
/// per-request deadline is kDeadline (enforced at admission and again at
/// micro-batch collect, so an expired request never occupies a forward),
/// and a faulted batch is kFault. An optional FaultInjector wedges,
/// delays, or kills the session on a deterministic schedule — the chaos
/// hook the ClusterController's breaker logic is tested against.
///
/// Threading: submit()/try_submit() are safe from any thread; the bounded
/// admission queue blocks producers when full (backpressure). Exactly one
/// thread executes forwards — the internal batcher thread, or the caller
/// of run_once() when constructed with start_thread=false — because the
/// compiled program's buffers and the layers' scratch are not reentrant.
/// Serving
/// telemetry (request count, batch-size histogram, latency samples for
/// p50/p95/p99, deadline misses) lands in the engine's Telemetry sink
/// under the session's cfg.replica_id row.
class EmuServer {
 public:
  /// Per-wave outcome callback (see ReplicaBatchEvent). Invoked on the
  /// executor thread after every executed wave resolves — the
  /// ClusterController's circuit-breaker/load feedback edge. Must be set
  /// at construction (before any traffic) to stay race-free.
  using BatchCallback = std::function<void(const ReplicaBatchEvent&)>;

  /// Takes ownership of the model and the engine. `clock` (optional)
  /// injects the time source for deadlines and latency accounting;
  /// `injector` (optional) the chaos hook; both must outlive the server,
  /// as must any captured state of `on_batch`. With cfg.start_thread the
  /// batcher starts immediately; otherwise drive the session with
  /// run_once().
  EmuServer(std::unique_ptr<Sequential> model, EmuEngine engine,
            const ServeConfig& cfg = {}, const ServeClock* clock = nullptr,
            FaultInjector* injector = nullptr, BatchCallback on_batch = {});
  EmuServer(const EmuServer&) = delete;
  EmuServer& operator=(const EmuServer&) = delete;
  ~EmuServer();  // stop()s: drains admitted requests, joins the thread

  /// Submits one sample. Accepts (1,...) tensors as well as bare (C,H,W) /
  /// (F,) samples, which are reshaped to batch dimension 1; any other
  /// leading dimension throws std::invalid_argument. Blocks while the
  /// queue is full (the backpressure edge) — but only up to the request's
  /// deadline (meta.deadline_us, or now + cfg.deadline_us when unset), so
  /// an overloaded session fails the future with ServeError::kDeadline
  /// instead of stalling the client forever. After stop() the returned
  /// future fails with ServeError::kStopped.
  std::future<InferResult> submit(Tensor x, const SubmitMeta& meta = {});

  /// Non-blocking admission. On success `*out` receives the result future
  /// and `x` is consumed. On failure `x` is returned to the caller intact
  /// (normalized to batch dimension 1) so a routing layer can retry it on
  /// another replica without deep-copying every request, and `*err` (when
  /// non-null) says why: kStopped after stop(), kOverloaded on a full
  /// queue, kDeadline when the deadline already expired at admission.
  bool try_submit(Tensor& x, std::future<InferResult>* out,
                  const SubmitMeta& meta = {}, ServeError* err = nullptr);

  /// Rvalue convenience overload: same semantics, but a rejected sample is
  /// discarded with the temporary (callers who retry keep an lvalue).
  bool try_submit(Tensor&& x, std::future<InferResult>* out,
                  const SubmitMeta& meta = {}, ServeError* err = nullptr) {
    Tensor local = std::move(x);
    return try_submit(local, out, meta, err);
  }

  /// Synchronously back-fills free in-flight slots from the queue and runs
  /// ONE wave on the calling thread (run_wave). Returns the requests that
  /// left the session this call — resolved, expired, or failed — so in
  /// discrete mode it is the micro-batch size (0 when idle). Only valid
  /// with start_thread=false — the deterministic test/embedding harness;
  /// calling it while the batcher thread runs throws std::logic_error.
  int run_once();

  /// Closes admission, drains every already-accepted request, and joins
  /// the batcher thread (with start_thread=false the drain runs inline).
  /// Idempotent; also called by the destructor.
  void stop();

  /// Requests admitted but not yet collected into a micro-batch — the
  /// queue-depth term of the ClusterController's load score.
  size_t pending() const { return queue_.size(); }

  /// Requests currently occupying in-flight slots (admitted into the wave
  /// engine, not yet resolved). A discrete micro-batch runs to full depth
  /// within one call, so between calls this reads 0 in discrete mode.
  /// Callable from any thread.
  size_t in_flight() const {
    return inflight_n_.load(std::memory_order_relaxed);
  }

  /// false once stop() ran or a kKill fault fired: new submissions fail
  /// with ServeError::kStopped (already-admitted requests still drain).
  bool accepting() const { return !queue_.closed(); }

  Sequential& model() { return *model_; }
  const EmuEngine& engine() const { return engine_; }
  const ServeConfig& config() const { return cfg_; }

  /// The shadow A/B engine (cfg.shadow), or nullptr when shadowing is
  /// disabled. Shadow GEMM/MAC work is accounted to *its* telemetry sink
  /// (including the lockstep primary re-runs of the per-layer walk), so
  /// the primary sink's counters — and energy projections — keep measuring
  /// exactly the serving traffic. Drift lands in the primary sink's
  /// DriftTracker, keyed (primary scenario, shadow scenario).
  const EmuEngine* shadow_engine() const {
    return shadow_engine_ ? &*shadow_engine_ : nullptr;
  }

  /// The compiled program this session serves through, or nullptr when
  /// the compiler rejected the backend or a layer (the session then serves
  /// through the per-sample model.forward loop). Built once at
  /// construction; checkpoint loads into the live model are picked up
  /// through CompiledModel::refresh() before every wave (one
  /// Param::version compare per GEMM op).
  const CompiledModel* compiled() const { return compiled_.get(); }

  /// Waves a continuous request takes: the compiled program's stages, or 1
  /// for the per-sample loop.
  size_t stages() const { return compiled_ ? compiled_->stages() : 1; }

  /// Snapshot of the engine's telemetry sink (GEMM counters plus the
  /// serve_* serving counters). Callable from any thread.
  TelemetrySnapshot telemetry() const { return engine_.telemetry().snapshot(); }

  /// The mutable sink itself — for owners (cluster, benches) that reset
  /// counters between measured repetitions.
  Telemetry& telemetry_sink() { return engine_.telemetry(); }

 private:
  /// One in-flight slot: a request whose activation (req.input) has
  /// advanced through the first `cursor` stages of the program.
  struct InFlight {
    ServeRequest req;
    size_t cursor = 0;       ///< next stage to run
    uint64_t formed_us = 0;  ///< when its first wave formed (queue_us term)
    bool shadowed = false;   ///< selected by the shadow trace-id hash
    Tensor shadow_input;     ///< admission-time input copy (iff shadowed)
  };

  /// One sample queued for shadow re-execution: the input copy captured
  /// at admission, before the primary forward consumed it, and the primary
  /// output copy captured before the promise consumed it. Both copies
  /// happen only for selected samples, and only reads touch primary state
  /// — the non-interference half of the shadow contract; the other half is
  /// that maybe_run_shadow() executes strictly after every promise of the
  /// wave resolved.
  struct ShadowSample {
    uint64_t trace_id = 0;
    Tensor input;
    Tensor primary_out;
  };

  void serve_loop();
  /// Non-blocking collect of as many queued requests as there are free
  /// in-flight slots.
  std::vector<ServeRequest> backfill();
  /// The single execution routine: admits `admitted` into free slots
  /// (collect-time deadline enforcement, shadow selection), applies the
  /// kill/fault schedule, advances the slots, then resolves and releases
  /// finished ones. A discrete session runs every slot through the whole
  /// program in this one call (one wave = one micro-batch); a continuous
  /// one advances every slot one stage. Returns the requests that left the
  /// session this call.
  int run_wave(std::vector<ServeRequest>& admitted);
  bool shadow_active() const { return shadow_engine_.has_value(); }
  void maybe_run_shadow(std::vector<ShadowSample>& picked);
  void run_shadow_sample(ShadowSample& s);
  /// Fails every in-flight slot with `err` (kill, injected fault, or a
  /// forward exception), counts the wave and its shadow sheds, and reports
  /// `ev`. Returns ev.requests.
  int fail_inflight(ReplicaBatchEvent& ev, std::exception_ptr err);
  Tensor normalize_input(Tensor x) const;
  size_t clamp_class(int priority) const;
  uint64_t resolve_deadline(const SubmitMeta& meta, uint64_t now) const;
  static std::vector<int> class_weights(const ServeConfig& cfg);
  static std::future<InferResult> failed_future(ServeError code,
                                                const char* what);

  std::unique_ptr<Sequential> model_;
  EmuEngine engine_;
  const ServeConfig cfg_;
  std::unique_ptr<CompiledModel> compiled_;  ///< null: per-sample fallback
  /// Shadow A/B engine (set iff cfg_.shadow.enabled()) over the *same*
  /// model. Sharing the model is safe: WeightQuantCache keys planes by
  /// format, so the two scenarios keep separate packed planes, and all
  /// shadow forwards run on the executor thread after the batch resolved
  /// (the single-executor invariant covers them).
  std::optional<EmuEngine> shadow_engine_;
  const ServeClock* clock_;
  FaultInjector* injector_;
  const BatchCallback on_batch_;
  ClassQueue queue_;
  MicroBatcher batcher_;
  /// In-flight slots — touched only by the executor thread (the
  /// single-executor invariant); the atomic mirrors its size for readers.
  std::vector<InFlight> inflight_;
  std::atomic<size_t> inflight_n_{0};
  std::thread thread_;
  uint64_t batch_seq_ = 0;  ///< executed batches; the FaultInjector's key
                            ///< (touched only by the executor thread)
  std::atomic<bool> killed_{false};  ///< a kKill fault fired: drain dead
  std::mutex exec_m_;  ///< serializes run_once() vs stop()'s inline drain
  std::mutex stop_m_;
  bool stopped_ = false;  ///< guarded by stop_m_
};

}  // namespace srmac
