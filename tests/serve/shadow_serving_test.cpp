// Shadow A/B serving (docs/SERVING.md "Shadow A/B & drift telemetry"):
// the contracts that make shadow execution deployable on a live session.
//
//   1. Non-interference: with a shadow block at fraction 1.0, every
//      primary response stays bitwise identical to (a) the same session
//      without shadowing and (b) the offline model.forward — across adder
//      kinds. The shadow pass runs strictly after the batch's promises
//      resolve, reads only copies, and its arithmetic lands in its own
//      engine's telemetry sink.
//   2. Deterministic sampling: shadow_selects is a pure function of the
//      trace id — reproducible, fraction-monotone (nested sets), and
//      roughly proportional.
//   3. Drift telemetry: the (primary, shadow) pair's series record every
//      selected sample; shadowing the primary under itself records
//      exactly-zero drift (the bitwise anchor); per-layer rows appear
//      with per_layer and not without it.
//   4. Overload shedding: with shed_pending set, a backed-up queue drops
//      the batch's shadow samples into serve_shadow_sheds instead of
//      running them — the reply path is never blocked by shadow work. A
//      selected request whose primary fails is shed too, so
//      serve_shadow_selected == runs + sheds always holds.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "rng/xoshiro.hpp"
#include "serve/emu_server.hpp"

using namespace srmac;

namespace {

constexpr uint64_t kInitSeed = 0xC0FFEE;
constexpr int kRequests = 8;
const char* kPrimary = "eager_sr:e5m2/e6m5:r=9:subON";

std::unique_ptr<Sequential> make_model() {
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Linear>(12, 16));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<Linear>(16, 5));
  he_init(*net, kInitSeed);
  return net;
}

Tensor make_sample(int i) {
  Tensor x({1, 12});
  Xoshiro256 rng(1000 + static_cast<uint64_t>(i));
  for (int64_t j = 0; j < x.numel(); ++j)
    x[j] = static_cast<float>(rng.normal());
  return x;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.numel()) * sizeof(float)))
      << what;
}

ServeConfig base_config() {
  ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 32;
  cfg.start_thread = false;  // deterministic run_once() harness
  cfg.input_shape = {12};
  return cfg;
}

/// Serves the 8 deterministic samples through `cfg` and returns the
/// outputs (run_once-driven; asserts everything resolves).
std::vector<Tensor> serve_all(EmuServer& server) {
  std::vector<std::future<InferResult>> futs(kRequests);
  for (int i = 0; i < kRequests; ++i)
    EXPECT_TRUE(server.try_submit(make_sample(i), &futs[i]));
  while (server.pending() > 0) server.run_once();
  std::vector<Tensor> outs;
  for (auto& f : futs) outs.push_back(f.get().output);
  return outs;
}

/// The non-interference check for one shadow scenario: shadowed outputs ==
/// unshadowed outputs == offline forwards, and the drift pair recorded
/// every sample.
void check_non_interference(const std::string& shadow) {
  const std::string what = "shadow=" + shadow;
  // Offline references on the same scenario/seed.
  auto offline_model = make_model();
  const EmuEngine offline = EmuEngine::Builder().scenario(kPrimary).build();
  std::vector<Tensor> refs;
  for (int i = 0; i < kRequests; ++i)
    refs.push_back(
        offline_model->forward(offline.context(), make_sample(i), false));

  // Control: the same session without a shadow block.
  EmuServer plain(make_model(), EmuEngine::Builder().scenario(kPrimary).build(),
                  base_config());
  const std::vector<Tensor> unshadowed = serve_all(plain);

  ServeConfig cfg = base_config();
  cfg.shadow.session.scenario = shadow;
  cfg.shadow.fraction = 1.0;
  EmuServer server(make_model(),
                   EmuEngine::Builder().scenario(kPrimary).build(), cfg);
  ASSERT_NE(server.compiled(), nullptr);  // the primary serves compiled
  ASSERT_NE(server.shadow_engine(), nullptr);
  const std::vector<Tensor> shadowed = serve_all(server);

  for (int i = 0; i < kRequests; ++i) {
    expect_bitwise_equal(shadowed[i], unshadowed[i],
                         what + " vs unshadowed sample " +
                             std::to_string(i));
    expect_bitwise_equal(shadowed[i], refs[i],
                         what + " vs offline sample " + std::to_string(i));
  }

  const TelemetrySnapshot snap = server.telemetry();
  EXPECT_EQ(snap.serve_shadow_selected, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(snap.serve_shadow_runs, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(snap.serve_shadow_sheds, 0u);
  ASSERT_EQ(snap.drift.size(), 1u) << what;
  const DriftPairSnapshot& pair = snap.drift[0];
  EXPECT_EQ(pair.primary, kPrimary);
  EXPECT_EQ(pair.shadow, shadow);
  EXPECT_EQ(pair.final_output.samples, static_cast<uint64_t>(kRequests));
  EXPECT_GT(pair.final_output.elems, 0u);
}

}  // namespace

TEST(ShadowServing, PrimaryKeepsBitsAcrossAdderKinds) {
  check_non_interference("rn:e5m2/e6m5:r=0:subON");
  check_non_interference("lazy_sr:e5m2/e6m5:r=9:subON");
  check_non_interference("eager_sr:e5m2/e6m5:r=13:subON");
}

TEST(ShadowServing, FinalOnlyShadowSkipsLayerRows) {
  // per_layer=false runs the shadow as one model.forward and compares the
  // final outputs only.
  ServeConfig cfg = base_config();
  cfg.shadow.session.scenario = "rn:e5m2/e6m5:r=0:subON";
  cfg.shadow.fraction = 1.0;
  cfg.shadow.per_layer = false;
  EmuServer server(make_model(),
                   EmuEngine::Builder().scenario(kPrimary).build(), cfg);
  serve_all(server);
  const TelemetrySnapshot snap = server.telemetry();
  ASSERT_EQ(snap.drift.size(), 1u);
  EXPECT_TRUE(snap.drift[0].layers.empty());
  EXPECT_EQ(snap.drift[0].final_output.samples,
            static_cast<uint64_t>(kRequests));
  EXPECT_GT(snap.drift[0].final_output.max_abs, 0.0);
}

TEST(ShadowServing, SelfShadowDriftIsExactlyZero) {
  // Same scenario, same seed: the shadow forward must replay the primary
  // bit for bit, at the final output AND at every layer — the anchor
  // bench_drift's self pair (and its 0.0 CI ceiling) rests on.
  ServeConfig cfg = base_config();
  cfg.shadow.session.scenario = kPrimary;
  cfg.shadow.fraction = 1.0;
  EmuServer server(make_model(),
                   EmuEngine::Builder().scenario(kPrimary).build(), cfg);
  serve_all(server);
  const TelemetrySnapshot snap = server.telemetry();
  ASSERT_EQ(snap.drift.size(), 1u);
  const DriftPairSnapshot& pair = snap.drift[0];
  EXPECT_EQ(pair.final_output.samples, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(pair.final_output.max_abs, 0.0);
  EXPECT_EQ(pair.final_output.mismatches.front(), 0u);
  ASSERT_FALSE(pair.layers.empty());  // per_layer defaults on
  for (const DriftLayerSnapshot& l : pair.layers)
    EXPECT_EQ(l.series.max_abs, 0.0) << "layer " << l.index << " " << l.layer;
}

TEST(ShadowServing, PerLayerRowsFollowTheModelWalk) {
  ServeConfig cfg = base_config();
  cfg.shadow.session.scenario = "rn:e5m2/e6m5:r=0:subON";
  cfg.shadow.fraction = 1.0;
  EmuServer server(make_model(),
                   EmuEngine::Builder().scenario(kPrimary).build(), cfg);
  serve_all(server);
  const TelemetrySnapshot snap = server.telemetry();
  ASSERT_EQ(snap.drift.size(), 1u);
  const DriftPairSnapshot& pair = snap.drift[0];
  ASSERT_EQ(pair.layers.size(), 3u);  // Linear, ReLU, Linear
  EXPECT_EQ(pair.layers[0].index, 0u);
  EXPECT_EQ(pair.layers[2].index, 2u);
  for (const DriftLayerSnapshot& l : pair.layers)
    EXPECT_EQ(l.series.samples, static_cast<uint64_t>(kRequests));
  // RN vs eager-SR genuinely diverges somewhere in this model.
  EXPECT_GT(pair.final_output.max_abs, 0.0);
}

TEST(ShadowServing, SamplingIsDeterministicAndMonotone) {
  // Pure-function reproducibility, nested selection across fractions, and
  // rough proportionality over a contiguous id range.
  for (uint64_t id : {0ull, 1ull, 42ull, 1ull << 20, ~0ull}) {
    EXPECT_EQ(shadow_hash(id), shadow_hash(id));
    EXPECT_TRUE(shadow_selects(id, 1.0));
    EXPECT_FALSE(shadow_selects(id, 0.0));
  }
  int selected25 = 0, selected50 = 0;
  for (uint64_t id = 1; id <= 1000; ++id) {
    const bool s25 = shadow_selects(id, 0.25);
    const bool s50 = shadow_selects(id, 0.50);
    if (s25) {
      EXPECT_TRUE(s50) << "nested sets violated at id " << id;
    }
    selected25 += s25;
    selected50 += s50;
  }
  EXPECT_NEAR(selected25, 250, 60);
  EXPECT_NEAR(selected50, 500, 70);
}

TEST(ShadowServing, FractionalSamplingCountsSelected) {
  // Trace ids 1..N via SubmitMeta: the session must select exactly the
  // ids shadow_selects picks at the configured fraction.
  const double fraction = 0.5;
  ServeConfig cfg = base_config();
  cfg.shadow.session.scenario = "rn:e5m2/e6m5:r=0:subON";
  cfg.shadow.fraction = fraction;
  EmuServer server(make_model(),
                   EmuEngine::Builder().scenario(kPrimary).build(), cfg);
  uint64_t expected = 0;
  std::vector<std::future<InferResult>> futs(16);
  for (int i = 0; i < 16; ++i) {
    SubmitMeta meta;
    meta.trace_id = static_cast<uint64_t>(i + 1);
    expected += shadow_selects(meta.trace_id, fraction) ? 1 : 0;
    ASSERT_TRUE(server.try_submit(make_sample(i), &futs[i], meta));
  }
  while (server.pending() > 0) server.run_once();
  for (auto& f : futs) f.get();
  const TelemetrySnapshot snap = server.telemetry();
  EXPECT_EQ(snap.serve_shadow_selected, expected);
  EXPECT_EQ(snap.serve_shadow_runs, expected);
  ASSERT_EQ(snap.drift.size(), 1u);
  EXPECT_EQ(snap.drift[0].final_output.samples, expected);
}

TEST(ShadowServing, ShedsUnderBacklogWithTypedCounter) {
  // shed_pending=1: while requests are still queued behind the executing
  // batch, its shadow samples are dropped (counted), never run. The last
  // batch drains with an empty queue, so its shadows execute.
  ServeConfig cfg = base_config();
  cfg.shadow.session.scenario = "rn:e5m2/e6m5:r=0:subON";
  cfg.shadow.fraction = 1.0;
  cfg.shadow.shed_pending = 1;
  EmuServer server(make_model(),
                   EmuEngine::Builder().scenario(kPrimary).build(), cfg);
  std::vector<std::future<InferResult>> futs(kRequests);
  for (int i = 0; i < kRequests; ++i)
    ASSERT_TRUE(server.try_submit(make_sample(i), &futs[i]));
  while (server.pending() > 0) server.run_once();
  for (auto& f : futs) f.get();
  const TelemetrySnapshot snap = server.telemetry();
  // Two batches of 4: the first sheds (4 still pending), the second runs.
  EXPECT_EQ(snap.serve_shadow_selected, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(snap.serve_shadow_sheds, 4u);
  EXPECT_EQ(snap.serve_shadow_runs, 4u);
  ASSERT_EQ(snap.drift.size(), 1u);
  EXPECT_EQ(snap.drift[0].final_output.samples, 4u);
}

TEST(ShadowServing, FailedPrimaryShedsItsShadowSample) {
  // Selection happens at admission; an injected fault on the first wave
  // then fails that cohort's primaries, so their shadows never run — they
  // must land in serve_shadow_sheds, not vanish from the accounting.
  for (const bool continuous : {false, true}) {
    SCOPED_TRACE(continuous ? "continuous" : "discrete");
    ServeConfig cfg = base_config();
    cfg.continuous = continuous;
    cfg.shadow.session.scenario = "rn:e5m2/e6m5:r=0:subON";
    cfg.shadow.fraction = 1.0;
    FaultInjector chaos;
    chaos.fail_batches(0, /*from=*/0, /*to=*/1);
    EmuServer server(make_model(),
                     EmuEngine::Builder().scenario(kPrimary).build(), cfg,
                     nullptr, &chaos);
    std::vector<std::future<InferResult>> futs(kRequests);
    for (int i = 0; i < kRequests; ++i)
      ASSERT_TRUE(server.try_submit(make_sample(i), &futs[i]));
    while (server.pending() > 0 || server.in_flight() > 0) server.run_once();
    uint64_t failed = 0;
    for (auto& f : futs) {
      try {
        f.get();
      } catch (const ServeException& e) {
        EXPECT_EQ(e.code(), ServeError::kFault);
        ++failed;
      }
    }
    EXPECT_EQ(failed, 4u);  // the first wave's cohort (max_batch 4)
    const TelemetrySnapshot snap = server.telemetry();
    EXPECT_EQ(snap.serve_shadow_selected, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(snap.serve_shadow_sheds, failed);
    EXPECT_EQ(snap.serve_shadow_runs, kRequests - failed);
  }
}

TEST(ShadowServing, ShadowWorkStaysOutOfThePrimarySink) {
  // The energy-projection contract: the primary sink's GEMM/MAC counters
  // must measure exactly the serving traffic, shadowed or not.
  ServeConfig plain_cfg = base_config();
  EmuServer plain(make_model(),
                  EmuEngine::Builder().scenario(kPrimary).build(), plain_cfg);
  serve_all(plain);
  const TelemetrySnapshot base = plain.telemetry();

  ServeConfig cfg = base_config();
  cfg.shadow.session.scenario = "rn:e5m2/e6m5:r=0:subON";
  cfg.shadow.fraction = 1.0;
  EmuServer server(make_model(),
                   EmuEngine::Builder().scenario(kPrimary).build(), cfg);
  serve_all(server);
  const TelemetrySnapshot with_shadow = server.telemetry();
  EXPECT_EQ(with_shadow.gemms, base.gemms);
  EXPECT_EQ(with_shadow.macs, base.macs);
  // ... while the shadow engine's own sink shows the re-runs (the
  // lockstep walk re-executes the primary there too, so >= base).
  ASSERT_NE(server.shadow_engine(), nullptr);
  const TelemetrySnapshot shadow_sink =
      server.shadow_engine()->telemetry().snapshot();
  EXPECT_GE(shadow_sink.macs, base.macs);
}

TEST(ShadowServing, DisabledConfigMeansNoShadowEngine) {
  ServeConfig cfg = base_config();
  cfg.shadow.session.scenario = "rn:e5m2/e6m5:r=0:subON";
  cfg.shadow.fraction = 0.0;  // scenario set but fraction 0: disabled
  EXPECT_FALSE(cfg.shadow.enabled());
  EmuServer server(make_model(),
                   EmuEngine::Builder().scenario(kPrimary).build(), cfg);
  EXPECT_EQ(server.shadow_engine(), nullptr);
  serve_all(server);
  const TelemetrySnapshot snap = server.telemetry();
  EXPECT_EQ(snap.serve_shadow_selected, 0u);
  EXPECT_TRUE(snap.drift.empty());
}

TEST(ShadowServing, ContinuousBatchingShadowsFromAdmissionCopies) {
  // Continuous mode overwrites each slot's activation in place stage by
  // stage, so the shadow input is captured at admission; the contract is
  // the same — primary bits untouched, every sample's drift recorded.
  auto offline_model = make_model();
  const EmuEngine offline = EmuEngine::Builder().scenario(kPrimary).build();
  std::vector<Tensor> refs;
  for (int i = 0; i < kRequests; ++i)
    refs.push_back(
        offline_model->forward(offline.context(), make_sample(i), false));

  ServeConfig cfg = base_config();
  cfg.continuous = true;
  cfg.shadow.session.scenario = "rn:e5m2/e6m5:r=0:subON";
  cfg.shadow.fraction = 1.0;
  EmuServer server(make_model(),
                   EmuEngine::Builder().scenario(kPrimary).build(), cfg);
  std::vector<std::future<InferResult>> futs(kRequests);
  for (int i = 0; i < kRequests; ++i)
    ASSERT_TRUE(server.try_submit(make_sample(i), &futs[i]));
  while (server.pending() > 0 || server.in_flight() > 0) server.run_once();
  for (int i = 0; i < kRequests; ++i)
    expect_bitwise_equal(futs[i].get().output, refs[i],
                         "continuous shadow sample " + std::to_string(i));
  const TelemetrySnapshot snap = server.telemetry();
  EXPECT_EQ(snap.serve_shadow_selected, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(snap.serve_shadow_runs, static_cast<uint64_t>(kRequests));
  ASSERT_EQ(snap.drift.size(), 1u);
  EXPECT_EQ(snap.drift[0].final_output.samples,
            static_cast<uint64_t>(kRequests));
}
