// EmuServer behavior: async submission, dynamic micro-batching, bounded
// admission with backpressure, drain-on-stop, injected-clock latency
// accounting, and the serving telemetry counters. The threaded cases are
// the serve suite the TSan CI leg runs under ThreadSanitizer.
#include "serve/emu_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nn/init.hpp"
#include "nn/mlp.hpp"
#include "rng/xoshiro.hpp"

using namespace srmac;

namespace {

constexpr const char* kScenario = "eager_sr:e5m2/e6m5:r=9:subON";

std::unique_ptr<Sequential> make_model() {
  auto net = make_mlp(16, {16, 16}, 4);
  he_init(*net, 0xBE7C);
  return net;
}

EmuEngine make_engine(const std::string& backend = "sharded") {
  return EmuEngine::Builder().scenario(kScenario).backend(backend).build();
}

/// The session config every case starts from: input_shape is required.
ServeConfig serve_cfg() {
  ServeConfig cfg;
  cfg.input_shape = {16};
  return cfg;
}

Tensor make_sample(int i) {
  Tensor x({1, 16});
  Xoshiro256 rng(77 + static_cast<uint64_t>(i));
  for (int64_t j = 0; j < x.numel(); ++j)
    x[j] = static_cast<float>(rng.normal());
  return x;
}

/// Sums of the session's ReplicaBatchEvents: each request leaves exactly
/// once, so the totals agree between discrete and continuous execution
/// even though continuous mode reports one event per wave.
struct EventTotals {
  size_t requests = 0, completed = 0, expired = 0;
  EmuServer::BatchCallback sink() {
    return [this](const ReplicaBatchEvent& ev) {
      requests += ev.requests;
      completed += ev.completed;
      expired += ev.expired;
    };
  }
};

/// Runs waves until at least one request leaves the session (one wave in
/// discrete mode; up to the program's stages in continuous mode) and
/// returns how many left.
int run_until_exit(EmuServer& server) {
  int left = 0;
  while (left == 0 && (server.pending() > 0 || server.in_flight() > 0))
    left = server.run_once();
  return left;
}

}  // namespace

TEST(EmuServer, ThreadedClientsAllResolveWithCorrectBits) {
  // Offline references first.
  auto offline_model = make_model();
  const EmuEngine offline = EmuEngine::Builder().scenario(kScenario).build();
  std::vector<Tensor> refs;
  for (int i = 0; i < 32; ++i)
    refs.push_back(
        offline_model->forward(offline.context(), make_sample(i), false));

  ServeConfig cfg = serve_cfg();
  cfg.max_batch = 8;
  cfg.max_wait_us = 200;
  cfg.queue_capacity = 16;
  EmuServer server(make_model(), make_engine(), cfg);

  // 4 client threads x 8 requests, blocking submit (backpressure applies).
  std::vector<std::future<InferResult>> futs(32);
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c)
    clients.emplace_back([&, c] {
      for (int i = c * 8; i < (c + 1) * 8; ++i)
        futs[i] = server.submit(make_sample(i));
    });
  for (auto& t : clients) t.join();

  for (int i = 0; i < 32; ++i) {
    InferResult r = futs[i].get();
    ASSERT_EQ(r.output.shape(), refs[i].shape());
    for (int64_t j = 0; j < r.output.numel(); ++j)
      ASSERT_EQ(r.output[j], refs[i][j]) << "request " << i;
    EXPECT_GE(r.batch_size, 1);
    EXPECT_LE(r.batch_size, 8);
    EXPECT_LE(r.queue_us, r.total_us);
  }
  const TelemetrySnapshot snap = server.telemetry();
  EXPECT_EQ(snap.serve_requests, 32u);
  EXPECT_EQ(snap.serve_latency_us.size(), 32u);
  uint64_t hist_requests = 0, hist_batches = 0;
  for (size_t s = 0; s < snap.serve_batch_hist.size(); ++s) {
    hist_requests += s * snap.serve_batch_hist[s];
    hist_batches += snap.serve_batch_hist[s];
  }
  EXPECT_EQ(hist_requests, 32u);
  EXPECT_EQ(hist_batches, snap.serve_batches);
}

TEST(EmuServer, PartialBatchExecutesAfterLinger) {
  // One lonely request must not wait for a full batch: the max_wait_us
  // deadline fires and a batch of 1 executes.
  ServeConfig cfg = serve_cfg();
  cfg.max_batch = 8;
  cfg.max_wait_us = 5000;
  EmuServer server(make_model(), make_engine(), cfg);
  InferResult r = server.submit(make_sample(0)).get();
  EXPECT_EQ(r.batch_size, 1);
}

TEST(EmuServer, MaxBatchSplitsPendingRequests) {
  ServeConfig cfg = serve_cfg();
  cfg.max_batch = 4;
  cfg.start_thread = false;
  EmuServer server(make_model(), make_engine(), cfg);
  std::vector<std::future<InferResult>> futs(6);
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(server.try_submit(make_sample(i), &futs[i]));
  EXPECT_EQ(server.run_once(), 4);
  EXPECT_EQ(server.run_once(), 2);
  EXPECT_EQ(server.run_once(), 0);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(futs[i].get().batch_size, 4);
  for (int i = 4; i < 6; ++i) EXPECT_EQ(futs[i].get().batch_size, 2);
}

TEST(EmuServer, TrySubmitBackpressuresOnFullQueue) {
  ServeConfig cfg = serve_cfg();
  cfg.queue_capacity = 2;
  cfg.max_batch = 4;
  cfg.start_thread = false;
  EmuServer server(make_model(), make_engine(), cfg);
  std::future<InferResult> f1, f2, f3;
  EXPECT_TRUE(server.try_submit(make_sample(0), &f1));
  EXPECT_TRUE(server.try_submit(make_sample(1), &f2));
  EXPECT_FALSE(server.try_submit(make_sample(2), &f3));  // full: rejected
  EXPECT_EQ(server.run_once(), 2);
  EXPECT_TRUE(server.try_submit(make_sample(2), &f3));  // space again
  EXPECT_EQ(server.run_once(), 1);
  f1.get();
  f2.get();
  f3.get();
}

TEST(EmuServer, BlockingSubmitWaitsForSpace) {
  ServeConfig cfg = serve_cfg();
  cfg.queue_capacity = 1;
  cfg.max_batch = 1;
  cfg.start_thread = false;
  EmuServer server(make_model(), make_engine(), cfg);
  std::future<InferResult> f0;
  ASSERT_TRUE(server.try_submit(make_sample(0), &f0));

  std::atomic<bool> admitted{false};
  std::thread client([&] {
    std::future<InferResult> f1 = server.submit(make_sample(1));  // blocks
    admitted.store(true);
    f1.get();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());  // still backpressured
  EXPECT_EQ(server.run_once(), 1);  // frees the slot
  while (!admitted.load()) {
    server.run_once();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Drain whatever the client got admitted, then let it finish.
  while (server.run_once() > 0) {
  }
  client.join();
  f0.get();
}

TEST(EmuServer, StopDrainsAdmittedRequestsAndRefusesNew) {
  ServeConfig cfg = serve_cfg();
  cfg.max_batch = 4;
  cfg.start_thread = false;
  EmuServer server(make_model(), make_engine(), cfg);
  std::vector<std::future<InferResult>> futs(3);
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(server.try_submit(make_sample(i), &futs[i]));
  server.stop();  // manual mode: drains inline
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
  std::future<InferResult> rejected = server.submit(make_sample(9));
  EXPECT_THROW(rejected.get(), std::runtime_error);
  std::future<InferResult> out;
  EXPECT_FALSE(server.try_submit(make_sample(9), &out));
}

TEST(EmuServer, ThreadedStopDrainsInFlightWork) {
  ServeConfig cfg = serve_cfg();
  cfg.max_batch = 4;
  cfg.max_wait_us = 50;
  EmuServer server(make_model(), make_engine(), cfg);
  std::vector<std::future<InferResult>> futs;
  for (int i = 0; i < 12; ++i) futs.push_back(server.submit(make_sample(i)));
  server.stop();
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
  EXPECT_EQ(server.telemetry().serve_requests, 12u);
}

TEST(EmuServer, RunOnceOnThreadedServerThrows) {
  EmuServer server(make_model(), make_engine(), serve_cfg());
  EXPECT_THROW(server.run_once(), std::logic_error);
}

TEST(EmuServer, NormalizesBareSampleShapesAndRejectsBatches) {
  ServeConfig cfg = serve_cfg();
  cfg.start_thread = false;
  EmuServer server(make_model(), make_engine(), cfg);
  std::future<InferResult> f;
  ASSERT_TRUE(server.try_submit(Tensor({16}), &f));  // (F,) -> (1,F)
  EXPECT_EQ(server.run_once(), 1);
  EXPECT_EQ(f.get().output.dim(0), 1);
  EXPECT_THROW(server.submit(Tensor({2, 16})), std::invalid_argument);
}

TEST(EmuServer, ConfiguredInputShapeRejectsMismatchesAtAdmission) {
  // Requests are untrusted input and the layers' shape asserts compile out
  // in Release — the session must reject wrong-shaped samples at submit()
  // instead of reading out of bounds in a GEMM.
  ServeConfig cfg = serve_cfg();
  cfg.start_thread = false;
  EmuServer server(make_model(), make_engine(), cfg);
  std::future<InferResult> f;
  ASSERT_TRUE(server.try_submit(Tensor({16}), &f));       // exact match
  ASSERT_TRUE(server.try_submit(Tensor({1, 16}), &f));    // (1,F) form
  EXPECT_THROW(server.submit(Tensor({8})), std::invalid_argument);
  EXPECT_THROW(server.submit(Tensor({17})), std::invalid_argument);
  EXPECT_THROW(server.submit(Tensor({1, 4, 4})), std::invalid_argument);
  EXPECT_EQ(server.run_once(), 2);  // only the valid samples were admitted
}

TEST(EmuServer, EmptyInputShapeIsRejectedAtConstruction) {
  // The compiler plans the session's buffers for input_shape and admission
  // checks every sample against it, so a session cannot run without one.
  ServeConfig cfg;
  cfg.start_thread = false;
  EXPECT_THROW(EmuServer(make_model(), make_engine(), cfg),
               std::invalid_argument);
}

TEST(ServeTelemetry, LatencyReservoirStaysBounded) {
  // A long-lived session must not grow telemetry without bound: past the
  // cap the sink decimates deterministically, keeping percentiles sane.
  Telemetry telemetry;
  std::vector<uint64_t> chunk(1024, 7);
  const size_t total = 3 * Telemetry::kServeLatencySampleCap;
  for (size_t fed = 0; fed < total; fed += chunk.size())
    telemetry.record_serve_batch(chunk.size(), chunk.data(), chunk.size());
  const TelemetrySnapshot snap = telemetry.snapshot();
  EXPECT_EQ(snap.serve_requests, total);
  EXPECT_LE(snap.serve_latency_us.size(), Telemetry::kServeLatencySampleCap);
  EXPECT_GE(snap.serve_latency_us.size(),
            Telemetry::kServeLatencySampleCap / 4);  // still well-populated
  EXPECT_EQ(snap.serve_latency_percentile_us(50), 7.0);
  EXPECT_EQ(snap.serve_latency_percentile_us(99), 7.0);
}

TEST(EmuServer, InjectedClockPinsLatenciesExactly) {
  ServeConfig cfg = serve_cfg();
  cfg.max_batch = 4;
  cfg.start_thread = false;
  ManualServeClock clock(1000);
  EmuServer server(make_model(), make_engine(), cfg, &clock);
  std::future<InferResult> f0, f1;
  ASSERT_TRUE(server.try_submit(make_sample(0), &f0));  // t = 1000
  clock.advance(100);
  ASSERT_TRUE(server.try_submit(make_sample(1), &f1));  // t = 1100
  clock.advance(50);                                    // batch forms at 1150
  ASSERT_EQ(server.run_once(), 2);
  const InferResult r0 = f0.get(), r1 = f1.get();
  EXPECT_EQ(r0.queue_us, 150u);
  EXPECT_EQ(r0.total_us, 150u);  // manual clock: forward takes zero ticks
  EXPECT_EQ(r1.queue_us, 50u);
  EXPECT_EQ(r1.total_us, 50u);

  const TelemetrySnapshot snap = server.telemetry();
  ASSERT_EQ(snap.serve_latency_us.size(), 2u);
  EXPECT_EQ(snap.serve_latency_percentile_us(50), 50.0);
  EXPECT_EQ(snap.serve_latency_percentile_us(99), 150.0);
  EXPECT_EQ(snap.serve_mean_batch(), 2.0);
}

TEST(EmuServer, TrySubmitReturnsSampleOnRejection) {
  // A rejected try_submit must hand the sample back (normalized), so a
  // routing layer retries it on another replica without a deep copy.
  ServeConfig cfg = serve_cfg();
  cfg.queue_capacity = 1;
  cfg.max_batch = 1;
  cfg.start_thread = false;
  EmuServer server(make_model(), make_engine(), cfg);
  std::future<InferResult> f0, f1;
  ASSERT_TRUE(server.try_submit(make_sample(0), &f0));  // fills the queue

  Tensor x = make_sample(1);
  const float first = x[0];
  ServeError err = ServeError::kFault;
  EXPECT_FALSE(server.try_submit(x, &f1, {}, &err));
  EXPECT_EQ(err, ServeError::kOverloaded);
  ASSERT_EQ(x.numel(), 16);  // the sample came back intact
  EXPECT_EQ(x[0], first);

  EXPECT_EQ(server.run_once(), 1);
  EXPECT_TRUE(server.try_submit(x, &f1, {}, &err));  // same tensor, no copy
  EXPECT_EQ(server.run_once(), 1);
  f0.get();
  f1.get();

  // After stop() the same rejection path reports kStopped.
  Tensor y = make_sample(2);
  server.stop();
  std::future<InferResult> f2;
  EXPECT_FALSE(server.try_submit(y, &f2, {}, &err));
  EXPECT_EQ(err, ServeError::kStopped);
  EXPECT_EQ(y.numel(), 16);
}

TEST(EmuServer, SubmitAfterStopFailsWithTypedStoppedError) {
  // Both admission paths must fail uniformly after stop(): a typed
  // ServeError::kStopped, never a broken promise or an anonymous error.
  ServeConfig cfg = serve_cfg();
  cfg.start_thread = false;
  EmuServer server(make_model(), make_engine(), cfg);
  server.stop();
  EXPECT_FALSE(server.accepting());
  try {
    server.submit(make_sample(0)).get();
    FAIL() << "submit after stop() must not resolve with a result";
  } catch (const ServeException& e) {
    EXPECT_EQ(e.code(), ServeError::kStopped);
  }
  // With a deadline set the blocking path goes through push_for — the
  // closed queue must still surface kStopped, not kDeadline.
  SubmitMeta meta;
  meta.deadline_us = ServeClock::steady().now_us() + 1000000;
  try {
    server.submit(make_sample(1), meta).get();
    FAIL() << "deadline submit after stop() must not resolve";
  } catch (const ServeException& e) {
    EXPECT_EQ(e.code(), ServeError::kStopped);
  }
}

TEST(EmuServer, DeadlineEnforcedAtAdmissionAndAtCollect) {
  for (const bool continuous : {false, true}) {
    SCOPED_TRACE(continuous ? "continuous" : "discrete");
    ServeConfig cfg = serve_cfg();
    cfg.max_batch = 4;
    cfg.start_thread = false;
    cfg.continuous = continuous;
    ManualServeClock clock(1000);
    EventTotals events;
    EmuServer server(make_model(), make_engine(), cfg, &clock, nullptr,
                     events.sink());

    // Already expired at admission: fail fast on both submission paths.
    SubmitMeta expired;
    expired.deadline_us = 500;
    try {
      server.submit(make_sample(0), expired).get();
      FAIL() << "expired request must not resolve with a result";
    } catch (const ServeException& e) {
      EXPECT_EQ(e.code(), ServeError::kDeadline);
    }
    Tensor x = make_sample(1);
    std::future<InferResult> f;
    ServeError err = ServeError::kFault;
    EXPECT_FALSE(server.try_submit(x, &f, expired, &err));
    EXPECT_EQ(err, ServeError::kDeadline);
    EXPECT_EQ(x.numel(), 16);  // sample returned here too

    // Admitted alive, expired by collect time: fails at the batch edge and
    // never occupies a slot in the forward.
    SubmitMeta soon;
    soon.deadline_us = 2000;
    std::future<InferResult> flate = server.submit(make_sample(2), soon);
    std::future<InferResult> flive = server.submit(make_sample(3));
    clock.advance(1500);                // t = 2500 > 2000
    EXPECT_EQ(run_until_exit(server), continuous ? 1 : 2);
    try {
      flate.get();
      FAIL() << "collect-expired request must not resolve with a result";
    } catch (const ServeException& e) {
      EXPECT_EQ(e.code(), ServeError::kDeadline);
    }
    if (continuous) {
      EXPECT_EQ(run_until_exit(server), 1);  // flive's remaining layers
    }
    EXPECT_EQ(server.in_flight(), 0u);
    InferResult r = flive.get();
    EXPECT_EQ(r.batch_size, 1);  // the expired request left the batch
    EXPECT_EQ(r.queue_us, 1500u);
    EXPECT_EQ(server.telemetry().serve_deadline_misses, 3u);
    EXPECT_EQ(events.requests, 2u);  // the admission rejects never queued
    EXPECT_EQ(events.completed, 1u);
    EXPECT_EQ(events.expired, 1u);
  }
}

TEST(EmuServer, BlockingSubmitFailsDeadlineInsteadOfWedging) {
  // A full queue plus a deadline: submit() waits only the request's time
  // budget, then fails kDeadline — a wedged session cannot hold clients.
  ServeConfig cfg = serve_cfg();
  cfg.queue_capacity = 1;
  cfg.max_batch = 1;
  cfg.start_thread = false;
  EmuServer server(make_model(), make_engine(), cfg);
  std::future<InferResult> f0;
  ASSERT_TRUE(server.try_submit(make_sample(0), &f0));  // wedge: queue full

  SubmitMeta meta;  // a 20ms budget on the backpressured request only
  meta.deadline_us = ServeClock::steady().now_us() + 20000;
  const auto t0 = std::chrono::steady_clock::now();
  std::future<InferResult> f1 = server.submit(make_sample(1), meta);
  const auto waited = std::chrono::steady_clock::now() - t0;
  try {
    f1.get();
    FAIL() << "backpressured past its deadline: must not resolve";
  } catch (const ServeException& e) {
    EXPECT_EQ(e.code(), ServeError::kDeadline);
  }
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            15);
  EXPECT_EQ(server.run_once(), 1);
  f0.get();  // the admitted request was never disturbed
}

TEST(EmuServer, FaultInjectorFailsDelaysAndKillsOnSchedule) {
  for (const bool continuous : {false, true}) {
    SCOPED_TRACE(continuous ? "continuous" : "discrete");
    ServeConfig cfg = serve_cfg();
    cfg.max_batch = 1;
    cfg.start_thread = false;
    cfg.continuous = continuous;
    FaultInjector chaos;
    EventTotals events;
    EmuServer server(make_model(), make_engine(), cfg, nullptr, &chaos,
                     events.sink());
    // The injector keys on executed waves: a discrete micro-batch is one
    // wave, a continuous request one wave per compiled stage.
    const uint64_t waves = continuous ? server.stages() : 1;
    chaos.fail_batches(0, /*from=*/0, /*to=*/1);
    chaos.delay_batches(0, /*from=*/1, /*to=*/1 + waves, /*delay_us=*/1000);
    chaos.kill_at(0, /*seq=*/1 + waves);

    std::future<InferResult> f0, f1, f2, f3;
    ASSERT_TRUE(server.try_submit(make_sample(0), &f0));
    ASSERT_TRUE(server.try_submit(make_sample(1), &f1));
    ASSERT_TRUE(server.try_submit(make_sample(2), &f2));
    ASSERT_TRUE(server.try_submit(make_sample(3), &f3));

    EXPECT_EQ(run_until_exit(server), 1);  // seq 0: injected failure
    try {
      f0.get();
      FAIL() << "faulted batch must not resolve with a result";
    } catch (const ServeException& e) {
      EXPECT_EQ(e.code(), ServeError::kFault);
    }
    EXPECT_EQ(run_until_exit(server), 1);  // delayed but correct
    EXPECT_NO_THROW(f1.get());
    EXPECT_EQ(server.in_flight(), 0u);
    EXPECT_EQ(run_until_exit(server), 1);  // the kill
    try {
      f2.get();
      FAIL() << "killed batch must not resolve with a result";
    } catch (const ServeException& e) {
      EXPECT_EQ(e.code(), ServeError::kFault);
    }
    // Dead replica: admission refused, the queued remainder drains kStopped.
    EXPECT_FALSE(server.accepting());
    EXPECT_EQ(server.run_once(), 1);
    try {
      f3.get();
      FAIL() << "post-kill drain must not resolve with a result";
    } catch (const ServeException& e) {
      EXPECT_EQ(e.code(), ServeError::kStopped);
    }
    EXPECT_EQ(chaos.injected(), 2 + waves);  // fail + delays + kill
    EXPECT_EQ(server.telemetry().serve_failed_batches, 3u);
    EXPECT_EQ(events.requests, 4u);
    EXPECT_EQ(events.completed, 1u);
    EXPECT_EQ(events.expired, 0u);
  }
}

TEST(EmuServer, StopRacingConcurrentSubmittersDrainsWithoutDrop) {
  // 4 threads submit while stop() runs. Every future obtained must
  // resolve: a result for everything admitted before the close, a typed
  // kStopped for everything after — no drops, no hangs, no anonymous
  // errors. This is the drain-without-drop case the TSan CI leg pins.
  ServeConfig cfg = serve_cfg();
  cfg.max_batch = 4;
  cfg.max_wait_us = 50;
  cfg.queue_capacity = 8;
  EmuServer server(make_model(), make_engine(), cfg);

  constexpr int kThreads = 4, kPerThread = 16;
  std::atomic<int> completed{0}, stopped{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c)
    clients.emplace_back([&, c] {
      for (int i = c * kPerThread; i < (c + 1) * kPerThread; ++i) {
        try {
          server.submit(make_sample(i)).get();
          completed.fetch_add(1);
        } catch (const ServeException& e) {
          EXPECT_EQ(e.code(), ServeError::kStopped);
          stopped.fetch_add(1);
        }
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.stop();
  for (auto& t : clients) t.join();

  EXPECT_EQ(completed.load() + stopped.load(), kThreads * kPerThread);
  // Telemetry agrees: exactly the completed requests were executed.
  EXPECT_EQ(server.telemetry().serve_requests,
            static_cast<uint64_t>(completed.load()));
}

TEST(EmuServer, TelemetryResetClearsServingCounters) {
  // The per-repetition reset() benches rely on must cover the serving
  // counters too, so JSON rows are per-run rather than cumulative. A
  // compiled session makes every counter family non-zero at once: the
  // serve_* counters, the GEMM counters, and the compile_* counters
  // (planes packed + fused epilogues at construction, activation bytes per
  // request, a rebuild forced through refresh() by a version bump).
  ServeConfig cfg = serve_cfg();
  cfg.start_thread = false;
  auto model = make_model();
  EmuEngine engine = make_engine();
  Telemetry& telemetry = engine.telemetry();
  EmuServer server(std::move(model), std::move(engine), cfg);
  std::future<InferResult> f;
  ASSERT_TRUE(server.try_submit(make_sample(0), &f));
  ASSERT_EQ(server.run_once(), 1);
  f.get();
  std::vector<Param*> params;
  server.model().collect_params(params);
  ASSERT_FALSE(params.empty());
  ++params[0]->version;  // stale plane: the next micro-batch must rebuild it
  ASSERT_TRUE(server.try_submit(make_sample(1), &f));
  ASSERT_EQ(server.run_once(), 1);
  f.get();
  TelemetrySnapshot snap = server.telemetry();
  ASSERT_EQ(snap.serve_requests, 2u);
  ASSERT_GT(snap.gemms, 0u);
  ASSERT_GT(snap.compile_planes_packed, 0u);
  ASSERT_GT(snap.compile_folds, 0u);
  ASSERT_GT(snap.compile_fusions, 0u);
  ASSERT_GT(snap.compile_rebuilds, 0u);
  ASSERT_GT(snap.compile_activation_bytes, 0u);
  telemetry.reset();
  snap = server.telemetry();
  EXPECT_EQ(snap.serve_requests, 0u);
  EXPECT_EQ(snap.serve_batches, 0u);
  EXPECT_TRUE(snap.serve_batch_hist.empty());
  EXPECT_TRUE(snap.serve_latency_us.empty());
  EXPECT_EQ(snap.gemms, 0u);
  EXPECT_EQ(snap.serve_latency_percentile_us(50), 0.0);
  EXPECT_EQ(snap.compile_planes_packed, 0u);
  EXPECT_EQ(snap.compile_folds, 0u);
  EXPECT_EQ(snap.compile_fusions, 0u);
  EXPECT_EQ(snap.compile_rebuilds, 0u);
  EXPECT_EQ(snap.compile_activation_bytes, 0u);
}
