#include "serve/emu_server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>
#include <vector>

#include "compile/model_compiler.hpp"

namespace srmac {

EmuServer::EmuServer(std::unique_ptr<Sequential> model, EmuEngine engine,
                     const ServeConfig& cfg, const ServeClock* clock,
                     FaultInjector* injector, BatchCallback on_batch)
    : model_(std::move(model)),
      engine_(std::move(engine)),
      cfg_(cfg),
      clock_(clock ? clock : &ServeClock::steady()),
      injector_(injector),
      on_batch_(std::move(on_batch)),
      queue_(cfg.queue_capacity, class_weights(cfg)),
      batcher_(queue_, cfg_, *clock_) {
  if (!model_) throw std::invalid_argument("EmuServer: null model");
  if (cfg_.input_shape.empty())
    throw std::invalid_argument(
        "EmuServer: ServeConfig::input_shape is required (the compiler "
        "plans buffers for it and admission checks every sample against it)");
  // Ahead-of-time lowering happens before any traffic (and before the
  // batcher thread exists). A backend or layer the compiler cannot lower
  // serves through the per-sample model.forward loop instead; a graph that
  // rejects the configured shape fails the constructor typed.
  ModelCompiler::Options copts;
  copts.input_shape = cfg_.input_shape;
  copts.max_batch = std::max(1, cfg_.max_batch);
  try {
    compiled_ = ModelCompiler(engine_).compile(*model_, copts);
  } catch (const CompileException& e) {
    if (e.code() != CompileError::kUnsupportedBackend &&
        e.code() != CompileError::kUnsupportedLayer)
      throw;
  }
  // A bad shadow scenario throws invalid_argument from the builder before
  // any traffic exists.
  if (cfg_.shadow.enabled())
    shadow_engine_.emplace(cfg_.shadow.session.build_engine());
  if (cfg_.start_thread) thread_ = std::thread([this] { serve_loop(); });
}

EmuServer::~EmuServer() { stop(); }

Tensor EmuServer::normalize_input(Tensor x) const {
  // Models take (N,F) or (N,C,H,W); 3-D is therefore always a bare CHW
  // sample (checked before the batched forms so a single-channel (1,H,W)
  // sample is not misread as an already-batched 2-D tensor).
  Tensor sample;
  if (x.ndim() == 3) {
    sample = x.reshaped({1, x.dim(0), x.dim(1), x.dim(2)});
  } else if (x.ndim() == 1) {
    sample = x.reshaped({1, x.dim(0)});
  } else if ((x.ndim() == 2 || x.ndim() == 4) && x.dim(0) == 1) {
    sample = std::move(x);
  } else {
    throw std::invalid_argument(
        "EmuServer::submit expects one sample: a (1,F) / (1,C,H,W) tensor "
        "or a bare (C,H,W) / (F,) sample");
  }
  // Admission-edge shape check: requests are untrusted input, and the
  // layers' own shape assertions compile out in Release builds.
  const std::vector<int>& want = cfg_.input_shape;
  bool ok = sample.ndim() == static_cast<int>(want.size()) + 1;
  for (int d = 0; ok && d < static_cast<int>(want.size()); ++d)
    ok = sample.dim(d + 1) == want[static_cast<size_t>(d)];
  if (!ok)
    throw std::invalid_argument(
        "EmuServer::submit: sample shape does not match the session's "
        "configured input_shape");
  return sample;
}

std::vector<int> EmuServer::class_weights(const ServeConfig& cfg) {
  std::vector<int> w;
  w.reserve(cfg.classes.size());
  for (const PriorityClass& c : cfg.classes) w.push_back(c.weight);
  return w;  // empty = ClassQueue's single implicit FIFO class
}

size_t EmuServer::clamp_class(int priority) const {
  if (cfg_.classes.empty() || priority <= 0) return 0;
  return std::min(static_cast<size_t>(priority), cfg_.classes.size() - 1);
}

uint64_t EmuServer::resolve_deadline(const SubmitMeta& meta,
                                     uint64_t now) const {
  if (meta.deadline_us) return meta.deadline_us;
  if (!cfg_.classes.empty()) {
    // Per-class relative default: a gold class can run tight deadlines
    // while bronze requests wait out congestion.
    const PriorityClass& pc = cfg_.classes[clamp_class(meta.priority)];
    if (pc.deadline_us) return now + pc.deadline_us;
  }
  return cfg_.deadline_us ? now + cfg_.deadline_us : 0;
}

std::future<InferResult> EmuServer::failed_future(ServeError code,
                                                  const char* what) {
  std::promise<InferResult> p;
  p.set_exception(std::make_exception_ptr(ServeException(code, what)));
  return p.get_future();
}

std::future<InferResult> EmuServer::submit(Tensor x, const SubmitMeta& meta) {
  ServeRequest req;
  req.input = normalize_input(std::move(x));
  req.submit_us = clock_->now_us();
  req.deadline_us = resolve_deadline(meta, req.submit_us);
  req.trace_id = meta.trace_id;
  req.priority = static_cast<int>(clamp_class(meta.priority));
  std::future<InferResult> fut = req.promise.get_future();
  if (req.deadline_us) {
    // Deadline-aware admission: wait for queue space only as long as the
    // request's own time budget allows, then fail fast instead of holding
    // the client hostage on a wedged session.
    if (req.submit_us >= req.deadline_us) {
      engine_.telemetry().record_serve_deadline_miss(cfg_.replica_id, 1);
      return failed_future(ServeError::kDeadline,
                           "EmuServer: deadline expired before admission");
    }
    switch (queue_.push_for(req, req.deadline_us - req.submit_us)) {
      case QueuePushResult::kOk:
        return fut;
      case QueuePushResult::kTimeout:
        engine_.telemetry().record_serve_deadline_miss(cfg_.replica_id, 1);
        return failed_future(ServeError::kDeadline,
                             "EmuServer: deadline expired waiting for "
                             "queue space");
      case QueuePushResult::kClosed:
        return failed_future(ServeError::kStopped,
                             "EmuServer: submit after stop()");
    }
  }
  if (!queue_.push(std::move(req))) {
    // Closed while (or before) waiting for space: fail explicitly instead
    // of handing back a broken promise.
    return failed_future(ServeError::kStopped,
                         "EmuServer: submit after stop()");
  }
  return fut;
}

bool EmuServer::try_submit(Tensor& x, std::future<InferResult>* out,
                           const SubmitMeta& meta, ServeError* err) {
  ServeRequest req;
  req.input = normalize_input(std::move(x));
  req.submit_us = clock_->now_us();
  req.deadline_us = resolve_deadline(meta, req.submit_us);
  req.trace_id = meta.trace_id;
  req.priority = static_cast<int>(clamp_class(meta.priority));
  if (req.deadline_us && req.submit_us >= req.deadline_us) {
    engine_.telemetry().record_serve_deadline_miss(cfg_.replica_id, 1);
    x = std::move(req.input);  // hand the (normalized) sample back
    if (err) *err = ServeError::kDeadline;
    return false;
  }
  std::future<InferResult> fut = req.promise.get_future();
  if (!queue_.try_push(req)) {
    // try_push left `req` untouched: return the sample so a routing layer
    // retries it elsewhere without a deep copy, and say why it bounced.
    x = std::move(req.input);
    if (err)
      *err = queue_.closed() ? ServeError::kStopped : ServeError::kOverloaded;
    return false;
  }
  if (out) *out = std::move(fut);
  return true;
}

void EmuServer::serve_loop() {
  // The loop never waits for a full drain while work is in flight: it
  // back-fills free slots non-blockingly and runs the next wave at once.
  // Only an idle executor blocks on the queue — always, between discrete
  // micro-batches, which run to full depth within their wave.
  while (true) {
    std::vector<ServeRequest> batch;
    if (inflight_.empty()) {
      batch = batcher_.collect();  // blocks; lingers per max_wait_us
      if (batch.empty()) return;   // closed and drained, nothing live
    } else {
      batch = backfill();
    }
    run_wave(batch);
  }
}

std::vector<ServeRequest> EmuServer::backfill() {
  const size_t cap = static_cast<size_t>(std::max(1, cfg_.max_batch));
  if (inflight_.size() >= cap) return {};
  return batcher_.collect_pending(cap - inflight_.size());
}

int EmuServer::run_once() {
  if (thread_.joinable())
    throw std::logic_error(
        "EmuServer::run_once requires start_thread=false (the batcher "
        "thread owns the forward pass)");
  // exec_m_ upholds the single-executor invariant against stop()'s inline
  // drain racing a run_once() caller (forwards are not reentrant).
  std::lock_guard<std::mutex> lk(exec_m_);
  std::vector<ServeRequest> batch = backfill();
  if (batch.empty() && inflight_.empty()) return 0;
  return run_wave(batch);
}

int EmuServer::fail_inflight(ReplicaBatchEvent& ev, std::exception_ptr err) {
  const size_t n = inflight_.size();
  // The wave still happened; count it without latency samples. A
  // shadow-selected request whose primary failed never runs its shadow:
  // it is shed, so serve_shadow_selected == runs + sheds always holds.
  engine_.telemetry().record_serve_batch(n, nullptr, 0, cfg_.replica_id,
                                         /*ok=*/false);
  const auto shadowed = std::count_if(
      inflight_.begin(), inflight_.end(),
      [](const InFlight& s) { return s.shadowed; });
  if (shadowed)
    engine_.telemetry().record_serve_shadow_shed(
        static_cast<uint64_t>(shadowed));
  for (InFlight& s : inflight_) s.req.promise.set_exception(err);
  inflight_.clear();
  inflight_n_.store(0, std::memory_order_relaxed);
  ev.requests += n;
  if (on_batch_) on_batch_(ev);
  return static_cast<int>(ev.requests);
}

int EmuServer::run_wave(std::vector<ServeRequest>& admitted) {
  ReplicaBatchEvent ev;
  ev.replica = cfg_.replica_id;

  // Admission with deadline enforcement: an expired request fails fast
  // with kDeadline instead of occupying a slot (its client already gave up
  // on it; executing it would only slow live requests).
  const uint64_t admit_us = clock_->now_us();
  const size_t fresh = inflight_.size();  // slots from here on are new
  for (ServeRequest& r : admitted) {
    if (r.deadline_us && admit_us > r.deadline_us) {
      r.promise.set_exception(std::make_exception_ptr(ServeException(
          ServeError::kDeadline,
          "EmuServer: deadline expired before micro-batch execution")));
      ++ev.expired;
      continue;
    }
    InFlight s;
    if (shadow_active() && shadow_selects(r.trace_id, cfg_.shadow.fraction)) {
      // Capture the input copy at admission — the activation is
      // overwritten in place as the request advances, so this is the last
      // moment the input exists. Unselected requests pay nothing.
      s.shadowed = true;
      s.shadow_input = r.input;  // deep copy
      engine_.telemetry().record_serve_shadow_selected(1);
    }
    s.req = std::move(r);
    inflight_.push_back(std::move(s));
  }
  admitted.clear();
  if (ev.expired)
    engine_.telemetry().record_serve_deadline_miss(
        cfg_.replica_id, static_cast<uint64_t>(ev.expired));
  inflight_n_.store(inflight_.size(), std::memory_order_relaxed);
  // A request leaves the engine exactly once (expired, failed, or
  // resolved); ev.requests accumulates those exits so the cluster's
  // in-flight accounting decrements once per request even when a
  // continuous request's life spans several wave events.
  ev.requests = ev.expired;
  if (inflight_.empty()) {
    if (ev.requests && on_batch_) on_batch_(ev);
    return static_cast<int>(ev.requests);
  }

  // Chaos hook: the injector decides the fate of this wave. killed_ makes
  // a kKill sticky — the remaining drain fails kStopped, the exact
  // behavior of a replica that died with requests still queued.
  const size_t n = inflight_.size();
  ev.ran = true;
  if (killed_.load(std::memory_order_acquire))
    return fail_inflight(ev, std::make_exception_ptr(ServeException(
                                 ServeError::kStopped,
                                 "EmuServer: replica killed before "
                                 "execution")));
  FaultInjector::Plan fault;
  if (injector_) fault = injector_->on_batch(cfg_.replica_id, batch_seq_);
  ++batch_seq_;
  if (fault.action == FaultInjector::Action::kFail ||
      fault.action == FaultInjector::Action::kKill) {
    if (fault.action == FaultInjector::Action::kKill) {
      killed_.store(true, std::memory_order_release);
      queue_.close();  // admission refused from here on (kStopped)
    }
    return fail_inflight(ev, std::make_exception_ptr(ServeException(
                                 ServeError::kFault,
                                 "EmuServer: injected fault failed the "
                                 "micro-batch")));
  }
  if (fault.action == FaultInjector::Action::kDelay && fault.delay_us)
    std::this_thread::sleep_for(std::chrono::microseconds(fault.delay_us));

  // The wave forms here: its new slots' queue time ends now.
  const uint64_t wave_us = clock_->now_us();
  for (size_t i = fresh; i < n; ++i) inflight_[i].formed_us = wave_us;
  const size_t depth = stages();
  try {
    // Inference-pinned dispatch: the program was lowered against the
    // engine context, which starts at GemmPass::kForward with the engine's
    // base seed — the chain an offline model.forward(engine.context(), x,
    // false) walks. refresh() first picks up any Param::version bumps
    // (checkpoint load, optimizer step) by rebuilding exactly the stale
    // planes.
    if (compiled_) compiled_->refresh();
    // Distinct cursors, ascending — older requests run their (deeper)
    // stage first, then newly admitted ones start at stage 0. Slots at the
    // same cursor carry same-shape activations and advance as one batch: a
    // continuous session by one stage, a discrete one through the whole
    // program.
    std::vector<size_t> cursors;
    for (const InFlight& s : inflight_) cursors.push_back(s.cursor);
    std::sort(cursors.begin(), cursors.end());
    cursors.erase(std::unique(cursors.begin(), cursors.end()), cursors.end());
    for (size_t cur : cursors) {
      std::vector<size_t> idx;
      for (size_t i = 0; i < n; ++i)
        if (inflight_[i].cursor == cur) idx.push_back(i);
      std::vector<Tensor> xs(idx.size());
      for (size_t j = 0; j < idx.size(); ++j)
        xs[j] = std::move(inflight_[idx[j]].req.input);
      const size_t next = cfg_.continuous ? cur + 1 : depth;
      if (compiled_) {
        compiled_->forward_batch(xs, cur, next);
      } else {
        const ComputeContext base = engine_.context();
        for (Tensor& x : xs) x = model_->forward(base, x, /*training=*/false);
      }
      for (size_t j = 0; j < idx.size(); ++j) {
        inflight_[idx[j]].req.input = std::move(xs[j]);
        inflight_[idx[j]].cursor = next;
      }
    }
  } catch (...) {
    return fail_inflight(ev, std::current_exception());
  }

  // Resolve finished requests and compact the slot vector — the releases
  // that the next wave's back-fill reclaims.
  const uint64_t done_us = clock_->now_us();
  std::vector<InFlight> done;
  std::vector<uint64_t> lat;
  std::vector<ShadowSample> picked;
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    InFlight& s = inflight_[i];
    if (s.cursor < depth) {
      if (w != i) inflight_[w] = std::move(s);
      ++w;
      continue;
    }
    lat.push_back(done_us - s.req.submit_us);
    if (s.shadowed) {
      // The served output, copied before the promise consumes it (reads
      // only — the client gets the original untouched).
      ShadowSample sh;
      sh.trace_id = s.req.trace_id;
      sh.input = std::move(s.shadow_input);
      sh.primary_out = s.req.input;
      picked.push_back(std::move(sh));
    }
    done.push_back(std::move(s));
  }
  inflight_.resize(w);
  inflight_n_.store(w, std::memory_order_relaxed);
  ev.ok = true;
  ev.completed = lat.size();
  ev.requests += lat.size();
  ev.exec_us = done_us - wave_us;
  engine_.telemetry().record_serve_batch(n, lat.data(), lat.size(),
                                         cfg_.replica_id);
  for (InFlight& s : done) {
    InferResult r;
    r.output = std::move(s.req.input);
    r.batch_size = static_cast<int>(n);  // in flight when it completed
    r.queue_us = s.formed_us - s.req.submit_us;
    r.total_us = done_us - s.req.submit_us;
    r.trace_id = s.req.trace_id;
    r.replica = cfg_.replica_id;
    s.req.promise.set_value(std::move(r));
  }
  if (on_batch_) on_batch_(ev);
  // Strictly after every promise of the wave resolved: clients are never
  // waiting on shadow work. The executor pays for it before collecting the
  // next micro-batch, and sheds it when the queue is already deep.
  maybe_run_shadow(picked);
  return static_cast<int>(ev.requests);
}

void EmuServer::maybe_run_shadow(std::vector<ShadowSample>& picked) {
  if (picked.empty()) return;
  // Overload valve: if the queue already holds a backlog, primary traffic
  // needs the executor more than the A/B experiment does. Shedding is
  // typed (serve_shadow_sheds) so an operator can see exactly how much of
  // the configured sample actually ran.
  if (cfg_.shadow.shed_pending && queue_.size() >= cfg_.shadow.shed_pending) {
    engine_.telemetry().record_serve_shadow_shed(picked.size());
    return;
  }
  for (ShadowSample& s : picked) {
    try {
      run_shadow_sample(s);
      engine_.telemetry().record_serve_shadow_run(1);
    } catch (...) {
      // A failing shadow forward must never take the serving session down;
      // count it as shed and keep serving.
      engine_.telemetry().record_serve_shadow_shed(1);
    }
  }
}

void EmuServer::run_shadow_sample(ShadowSample& s) {
  DriftTracker& drift = engine_.telemetry().drift();
  const std::vector<double>& eps = cfg_.shadow.epsilons;
  const std::string& pri = engine_.scenario();
  const std::string& sh = shadow_engine_->scenario();
  ComputeContext sc = shadow_engine_->context();
  if (!cfg_.shadow.per_layer) {
    const Tensor y = model_->forward(sc, s.input, /*training=*/false);
    const size_t n =
        static_cast<size_t>(std::min(s.primary_out.numel(), y.numel()));
    drift.record_final(pri, sh, eps, s.primary_out.data(), y.data(), n);
    return;
  }
  // Per-layer lockstep: re-run the primary scenario alongside the shadow,
  // comparing after every child. The walk replays exactly the fork/rule
  // chain Sequential::forward applies (child i under
  // fork(i+1).for_layer(name)), so the re-run primary activations are
  // bitwise the ones the serving forward produced. Both walks — including
  // the primary re-run — account their GEMMs to the *shadow* sink, keeping
  // the primary sink's counters a pure measure of serving traffic.
  ComputeContext pc = engine_.context();
  pc.telemetry = &shadow_engine_->telemetry();
  Tensor pa = s.input;  // copy: the walk consumes both
  Tensor sa = std::move(s.input);
  for (size_t i = 0; i < model_->size(); ++i) {
    Layer& child = model_->child(i);
    const uint64_t salt = static_cast<uint64_t>(i) + 1;
    pa = child.forward(pc.fork(salt).for_layer(child.name()), pa, false);
    sa = child.forward(sc.fork(salt).for_layer(child.name()), sa, false);
    const size_t n = static_cast<size_t>(std::min(pa.numel(), sa.numel()));
    drift.record_layer(pri, sh, eps, i, child.name(), pa.data(), sa.data(),
                       n);
  }
  // The final row compares the shadow output against the *served* output
  // (not the re-run), so it holds even if the lockstep replay were wrong.
  const size_t n =
      static_cast<size_t>(std::min(s.primary_out.numel(), sa.numel()));
  drift.record_final(pri, sh, eps, s.primary_out.data(), sa.data(), n);
}

void EmuServer::stop() {
  // Serialized: concurrent stop() calls must not both join the thread.
  std::lock_guard<std::mutex> lk(stop_m_);
  if (stopped_) return;
  stopped_ = true;
  queue_.close();
  if (thread_.joinable()) {
    thread_.join();  // serve_loop drains the queue before returning
  } else {
    // Manual mode: drain inline so every admitted request resolves —
    // under exec_m_, in case a run_once() caller is mid-batch.
    std::lock_guard<std::mutex> exec_lk(exec_m_);
    std::vector<ServeRequest> batch;
    while (!(batch = backfill()).empty() || !inflight_.empty())
      run_wave(batch);
  }
}

}  // namespace srmac
