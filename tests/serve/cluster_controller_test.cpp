// ClusterController behavior: weighted-load routing with trace IDs,
// per-replica circuit breakers (closed -> open -> half-open probe ->
// closed/reopen with exponential backoff), per-request deadlines enforced
// at admission and at collect, bounded retry of rejected submissions,
// load shedding with typed errors, and the seeded-chaos determinism
// contract: with a FaultInjector wedging then killing a replica, every
// completed response stays bitwise identical to the offline forward, no
// future ever hangs, and the breaker transition sequence is exactly
// reproducible. The threaded cases run under the TSan CI leg.
#include "serve/cluster_controller.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "nn/init.hpp"
#include "nn/mlp.hpp"
#include "rng/xoshiro.hpp"
#include "serve/fault_injector.hpp"

using namespace srmac;

namespace {

constexpr const char* kScenario = "eager_sr:e5m2/e6m5:r=9:subON";

std::unique_ptr<Sequential> make_model() {
  auto net = make_mlp(16, {16, 16}, 4);
  he_init(*net, 0xBE7C);
  return net;
}

EmuEngine make_engine() {
  return EmuEngine::Builder().scenario(kScenario).backend("sharded").build();
}

Tensor make_sample(int i) {
  Tensor x({1, 16});
  Xoshiro256 rng(77 + static_cast<uint64_t>(i));
  for (int64_t j = 0; j < x.numel(); ++j)
    x[j] = static_cast<float>(rng.normal());
  return x;
}

std::vector<Tensor> offline_refs(int n) {
  auto model = make_model();
  const EmuEngine offline = EmuEngine::Builder().scenario(kScenario).build();
  std::vector<Tensor> refs;
  for (int i = 0; i < n; ++i)
    refs.push_back(model->forward(offline.context(), make_sample(i), false));
  return refs;
}

void expect_bitwise(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                           static_cast<size_t>(got.numel()) * sizeof(float)))
      << what;
}

/// Manual-mode fleet config: deterministic run_once() drive, no threads.
ClusterConfig manual_cfg(int replicas) {
  ClusterConfig cfg;
  cfg.serve.input_shape = {16};
  cfg.replicas = replicas;
  cfg.serve.start_thread = false;
  cfg.serve.max_batch = 2;
  cfg.serve.queue_capacity = 8;
  cfg.breaker_threshold = 1;
  cfg.breaker_open_us = 1000;
  cfg.breaker_open_max_us = 4000;
  cfg.max_retries = 1;
  return cfg;
}

}  // namespace

TEST(CircuitBreaker, StateMachineWalksClosedOpenHalfOpenClosed) {
  CircuitBreaker br(/*failure_threshold=*/2, /*open_us=*/1000,
                    /*open_max_us=*/4000);
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(br.allow(0));
  EXPECT_FALSE(br.record_failure(0));  // 1 of 2: still closed
  EXPECT_TRUE(br.record_failure(0));   // threshold: trips open
  EXPECT_EQ(br.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(br.allow(999));  // window not elapsed
  EXPECT_TRUE(br.allow(1000));  // half-open: the single probe
  EXPECT_EQ(br.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(br.allow(1000));  // probe already in flight
  EXPECT_TRUE(br.record_success());
  EXPECT_EQ(br.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, FailedProbeReopensWithExponentialBackoff) {
  CircuitBreaker br(1, 1000, 4000);
  EXPECT_TRUE(br.record_failure(0));  // threshold 1: open until 1000
  EXPECT_TRUE(br.allow(1000));        // probe
  EXPECT_TRUE(br.record_failure(1000));  // probe failed: window doubles
  EXPECT_FALSE(br.allow(2999));          // 1000 + 2000 not yet elapsed
  EXPECT_TRUE(br.allow(3000));
  EXPECT_TRUE(br.record_failure(3000));  // doubles again: 4000 (capped)
  EXPECT_FALSE(br.allow(6999));
  EXPECT_TRUE(br.allow(7000));
  EXPECT_TRUE(br.record_failure(7000));  // cap: stays 4000
  EXPECT_FALSE(br.allow(10999));
  EXPECT_TRUE(br.allow(11000));
  EXPECT_TRUE(br.record_success());  // probe ok: closed, backoff reset
  EXPECT_TRUE(br.record_failure(20000));
  EXPECT_TRUE(br.allow(21000));  // back to the base window
}

TEST(ClusterController, RoutesByLoadScoreAndStampsMonotonicTraceIds) {
  ManualServeClock clock;
  ClusterController cluster(make_model, make_engine, manual_cfg(2), &clock);
  const std::vector<Tensor> refs = offline_refs(2);

  // Tie scores route to the lowest index; a queued request raises replica
  // 0's pending + in-flight terms, so the next submission goes to 1.
  EXPECT_EQ(cluster.load_score(0), 0.0);
  std::future<InferResult> f0 = cluster.submit(make_sample(0));
  EXPECT_GT(cluster.load_score(0), 0.0);
  EXPECT_EQ(cluster.load_score(1), 0.0);
  std::future<InferResult> f1 = cluster.submit(make_sample(1));
  EXPECT_EQ(cluster.run_once(), 2);

  InferResult r0 = f0.get(), r1 = f1.get();
  EXPECT_EQ(r0.replica, 0);
  EXPECT_EQ(r1.replica, 1);
  EXPECT_EQ(r0.trace_id, 1u);
  EXPECT_EQ(r1.trace_id, 2u);
  expect_bitwise(r0.output, refs[0], "routed sample 0");
  expect_bitwise(r1.output, refs[1], "routed sample 1");
}

TEST(ClusterController, DeadlineExpiredAtCollectFailsFastAndIsCounted) {
  ManualServeClock clock(1000);
  ClusterConfig cfg = manual_cfg(2);
  cfg.deadline_us = 500;
  ClusterController cluster(make_model, make_engine, cfg, &clock);
  std::future<InferResult> f = cluster.submit(make_sample(0));
  clock.advance(501);  // past the absolute deadline of 1500
  EXPECT_EQ(cluster.run_once(), 1);  // collected, but not executed
  try {
    f.get();
    FAIL() << "expired request must not resolve with a result";
  } catch (const ServeException& e) {
    EXPECT_EQ(e.code(), ServeError::kDeadline);
  }
  EXPECT_EQ(cluster.replica(0).telemetry().serve_deadline_misses, 1u);
  // The expired batch never ran a forward: the breaker must not trip.
  EXPECT_EQ(cluster.breaker_state(0), CircuitBreaker::State::kClosed);
}

TEST(ClusterController, BreakerOpensReroutesThenHalfOpenProbeRecloses) {
  ManualServeClock clock;
  ClusterConfig cfg = manual_cfg(2);
  cfg.breaker_threshold = 2;
  FaultInjector chaos;
  chaos.fail_batches(/*replica=*/0, /*from=*/0, /*to=*/2);
  ClusterController cluster(make_model, make_engine, cfg, &clock, &chaos);
  const std::vector<Tensor> refs = offline_refs(4);

  // Two failed batches on replica 0 trip its breaker.
  for (int i = 0; i < 2; ++i) {
    std::future<InferResult> f = cluster.submit(make_sample(i));
    EXPECT_EQ(cluster.run_once(), 1);
    EXPECT_THROW(f.get(), ServeException);
  }
  EXPECT_EQ(cluster.breaker_state(0), CircuitBreaker::State::kOpen);

  // Traffic reroutes to replica 1 while the breaker is open.
  std::future<InferResult> f2 = cluster.submit(make_sample(2));
  EXPECT_EQ(cluster.run_once(), 1);
  InferResult r2 = f2.get();
  EXPECT_EQ(r2.replica, 1);
  expect_bitwise(r2.output, refs[2], "rerouted around the open breaker");

  // After the open window a half-open probe is admitted; the injector's
  // schedule is over, so the probe succeeds and the breaker closes.
  clock.advance(1000);
  std::future<InferResult> f3 = cluster.submit(make_sample(3));
  EXPECT_EQ(cluster.breaker_state(0), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(cluster.run_once(), 1);
  InferResult r3 = f3.get();
  EXPECT_EQ(r3.replica, 0);
  expect_bitwise(r3.output, refs[3], "half-open probe");
  EXPECT_EQ(cluster.breaker_state(0), CircuitBreaker::State::kClosed);

  const std::vector<BreakerTransition> log = cluster.breaker_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].to, CircuitBreaker::State::kOpen);
  EXPECT_EQ(log[1].to, CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(log[1].trace_id, 4u);  // the probe-admitting request
  EXPECT_EQ(log[2].to, CircuitBreaker::State::kClosed);
}

TEST(ClusterController, AllBreakersOpenShedsWithOverloaded) {
  ManualServeClock clock;
  ClusterConfig cfg = manual_cfg(2);
  cfg.max_retries = 0;
  FaultInjector chaos;
  chaos.fail_batches(0, 0, 100);
  chaos.fail_batches(1, 0, 100);
  ClusterController cluster(make_model, make_engine, cfg, &clock, &chaos);

  std::future<InferResult> f0 = cluster.submit(make_sample(0));
  cluster.run_once();
  std::future<InferResult> f1 = cluster.submit(make_sample(1));
  cluster.run_once();
  EXPECT_THROW(f0.get(), ServeException);
  EXPECT_THROW(f1.get(), ServeException);
  EXPECT_EQ(cluster.breaker_state(0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cluster.breaker_state(1), CircuitBreaker::State::kOpen);

  // Every breaker refuses traffic: shed immediately, never block.
  try {
    cluster.submit(make_sample(2)).get();
    FAIL() << "shed request must not resolve with a result";
  } catch (const ServeException& e) {
    EXPECT_EQ(e.code(), ServeError::kOverloaded);
  }
  EXPECT_EQ(cluster.telemetry_snapshot().serve_sheds, 1u);
}

TEST(ClusterController, RejectedSubmissionRetriesThenShedsWithTypedError) {
  ManualServeClock clock;
  ClusterConfig cfg = manual_cfg(1);
  cfg.serve.queue_capacity = 1;
  cfg.max_retries = 2;
  ClusterController cluster(make_model, make_engine, cfg, &clock);

  std::future<InferResult> f0 = cluster.submit(make_sample(0));  // fills it
  try {
    cluster.submit(make_sample(1)).get();
    FAIL() << "rejected request must not resolve with a result";
  } catch (const ServeException& e) {
    EXPECT_EQ(e.code(), ServeError::kOverloaded);
  }
  const TelemetrySnapshot snap = cluster.telemetry_snapshot();
  EXPECT_EQ(snap.serve_retries, 2u);  // bounded: max_retries attempts
  EXPECT_EQ(snap.serve_sheds, 1u);
  ASSERT_GE(snap.serve_replicas.size(), 1u);
  EXPECT_EQ(snap.serve_replicas[0].retries, 2u);
  // Backpressure on a healthy replica is not failure: breaker stays closed.
  EXPECT_EQ(cluster.breaker_state(0), CircuitBreaker::State::kClosed);
  cluster.run_once();
  EXPECT_NO_THROW(f0.get());
}

TEST(ClusterController, ChaosKillMidDrainIsDeterministicAndBitwise) {
  // The acceptance scenario: a seeded FaultInjector kills one of 3
  // replicas mid-drain. Requirements pinned here: (1) every future
  // resolves — a result or a typed ServeError, nothing hangs; (2) every
  // completed response is bitwise identical to the offline forward; (3)
  // the breaker transition sequence is exactly the deterministic one; (4)
  // the per-replica telemetry counters match the schedule.
  ManualServeClock clock;
  ClusterConfig cfg = manual_cfg(3);
  FaultInjector chaos;
  chaos.kill_at(/*replica=*/1, /*seq=*/0);
  ClusterController cluster(make_model, make_engine, cfg, &clock, &chaos);
  const std::vector<Tensor> refs = offline_refs(14);

  // 12 submissions round-robin 4/4/4 across the replicas (the load score
  // rises with every queued request, so ties rotate deterministically).
  std::vector<std::future<InferResult>> futs;
  for (int i = 0; i < 12; ++i) futs.push_back(cluster.submit(make_sample(i)));

  // Drive the fleet dry. Replica 1's first batch hits the kill: it fails
  // kFault, admission closes, and its remaining queue drains kStopped.
  EXPECT_EQ(cluster.run_once(), 6);
  EXPECT_EQ(cluster.run_once(), 6);
  EXPECT_EQ(cluster.run_once(), 0);
  EXPECT_EQ(chaos.injected(), 1u);
  EXPECT_FALSE(cluster.replica(1).accepting());

  int completed = 0, faulted = 0, stopped = 0;
  for (int i = 0; i < 12; ++i) {
    try {
      InferResult r = futs[static_cast<size_t>(i)].get();
      EXPECT_EQ(r.trace_id, static_cast<uint64_t>(i + 1));
      EXPECT_NE(r.replica, 1);
      expect_bitwise(r.output, refs[static_cast<size_t>(i)],
                     "chaos survivor sample " + std::to_string(i));
      ++completed;
    } catch (const ServeException& e) {
      if (e.code() == ServeError::kFault) ++faulted;
      if (e.code() == ServeError::kStopped) ++stopped;
    }
  }
  EXPECT_EQ(completed, 8);  // replicas 0 and 2, 4 requests each
  EXPECT_EQ(faulted, 2);    // the killed batch
  EXPECT_EQ(stopped, 2);    // the dead drain

  // The dead replica's breaker opened; after the window, the probe lands
  // on the corpse, bounces with kStopped, reopens the breaker, and the
  // bounded retry delivers the request on a healthy replica.
  clock.advance(1000);
  std::future<InferResult> f13 = cluster.submit(make_sample(12));
  std::future<InferResult> f14 = cluster.submit(make_sample(13));
  EXPECT_GT(cluster.run_once(), 0);
  InferResult r13 = f13.get(), r14 = f14.get();
  EXPECT_EQ(r13.replica, 0);
  EXPECT_EQ(r14.replica, 2);  // probe on 1 bounced, retry landed on 2
  expect_bitwise(r13.output, refs[12], "post-kill sample 12");
  expect_bitwise(r14.output, refs[13], "post-kill retried sample 13");

  // The deterministic breaker sequence.
  const std::vector<BreakerTransition> log = cluster.breaker_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].replica, 1);
  EXPECT_EQ(log[0].to, CircuitBreaker::State::kOpen);
  EXPECT_EQ(log[0].trace_id, 0u);  // batch feedback, not a routing event
  EXPECT_EQ(log[1].replica, 1);
  EXPECT_EQ(log[1].to, CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(log[1].trace_id, 14u);
  EXPECT_EQ(log[2].replica, 1);
  EXPECT_EQ(log[2].to, CircuitBreaker::State::kOpen);
  EXPECT_EQ(log[2].trace_id, 14u);

  // Per-replica counters: cluster side (routing) and replica side (exec).
  const TelemetrySnapshot cs = cluster.telemetry_snapshot();
  EXPECT_EQ(cs.serve_sheds, 0u);
  EXPECT_EQ(cs.serve_retries, 1u);
  EXPECT_EQ(cs.serve_breaker_transitions, 3u);
  ASSERT_GE(cs.serve_replicas.size(), 2u);
  EXPECT_EQ(cs.serve_replicas[1].breaker_opens, 2u);
  EXPECT_EQ(cs.serve_replicas[1].breaker_half_opens, 1u);
  EXPECT_EQ(cs.serve_replicas[1].retries, 1u);
  const TelemetrySnapshot dead = cluster.replica(1).telemetry();
  EXPECT_EQ(dead.serve_failed_batches, 2u);
  EXPECT_EQ(dead.serve_requests, 0u);
  ASSERT_GE(dead.serve_replicas.size(), 2u);
  EXPECT_EQ(dead.serve_replicas[1].failures, 2u);
  EXPECT_EQ(cluster.replica(0).telemetry().serve_requests, 5u);
  EXPECT_EQ(cluster.replica(2).telemetry().serve_requests, 5u);
}

TEST(ClusterController, ThreadedChaosKillNeverHangsAndKeepsBits) {
  // The TSan-leg chaos smoke: 4 concurrent clients against a threaded
  // 3-replica fleet while the injector kills a replica. Every future must
  // resolve (result or typed error) and every result must be bitwise.
  ClusterConfig cfg;
  cfg.serve.input_shape = {16};
  cfg.replicas = 3;
  cfg.serve.max_batch = 4;
  cfg.serve.max_wait_us = 100;
  cfg.serve.queue_capacity = 16;
  cfg.breaker_threshold = 1;
  cfg.breaker_open_us = 50000;
  FaultInjector chaos;
  chaos.kill_at(/*replica=*/2, /*seq=*/1);
  ClusterController cluster(make_model, make_engine, cfg, nullptr, &chaos);
  const std::vector<Tensor> refs = offline_refs(32);

  std::atomic<int> completed{0}, typed{0}, mismatched{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c)
    clients.emplace_back([&, c] {
      for (int i = c * 8; i < (c + 1) * 8; ++i) {
        try {
          InferResult r = cluster.submit(make_sample(i)).get();
          const Tensor& want = refs[static_cast<size_t>(i)];
          if (r.output.shape() != want.shape() ||
              std::memcmp(r.output.data(), want.data(),
                          static_cast<size_t>(want.numel()) *
                              sizeof(float)) != 0)
            mismatched.fetch_add(1);
          completed.fetch_add(1);
        } catch (const ServeException&) {
          typed.fetch_add(1);
        }
      }
    });
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(completed.load() + typed.load(), 32);
  EXPECT_EQ(mismatched.load(), 0);
  cluster.stop();
}

TEST(ClusterController, ThreadedStopDrainsEveryAdmittedRequest) {
  ClusterConfig cfg;
  cfg.serve.input_shape = {16};
  cfg.replicas = 2;
  cfg.serve.max_batch = 4;
  cfg.serve.max_wait_us = 50;
  ClusterController cluster(make_model, make_engine, cfg);
  std::vector<std::future<InferResult>> futs;
  for (int i = 0; i < 12; ++i) futs.push_back(cluster.submit(make_sample(i)));
  cluster.stop();
  for (std::future<InferResult>& f : futs) EXPECT_NO_THROW(f.get());
}
