// Grouped same-shape execution (docs/SERVING.md): a micro-batch's
// per-sample GEMMs merge into ONE wider dispatch per layer, and the outputs
// stay bitwise identical to the offline per-sample forward — across adder
// kinds, backends, batch sizes, and the eager vs compiled executors. Also
// pins the grouped telemetry (gemms_grouped / grouped_samples) and the
// capability fallback: a backend without the seed-period contract
// (systolic) serves each sample on its own.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/resnet.hpp"
#include "rng/xoshiro.hpp"
#include "serve/emu_server.hpp"

using namespace srmac;

namespace {

constexpr uint64_t kInitSeed = 0xC0FFEE;

// Conv + composite block + head: exercises the grouped Conv2d branch (wide
// im2col panel, col_period), the BasicBlock batched walk, per-sample
// fallback layers, and the grouped Linear branch (stacked A, row_period).
std::unique_ptr<Sequential> make_model() {
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Conv2d>(1, 4, 3));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<BasicBlock>(4, 8, 2));
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(8, 5));
  he_init(*net, kInitSeed);
  return net;
}

Tensor make_sample(int i) {
  Tensor x({1, 1, 8, 8});
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

/// Serves 16 deterministic samples in micro-batches of exactly `batch`
/// through one session; returns the outputs and (optionally) the session's
/// telemetry snapshot.
std::vector<Tensor> serve_all(const std::string& scenario,
                              const std::string& backend, int batch,
                              bool compile,
                              TelemetrySnapshot* snap = nullptr) {
  ServeConfig cfg;
  cfg.max_batch = batch;
  cfg.queue_capacity = 32;
  cfg.start_thread = false;
  cfg.compile = compile;
  if (compile) cfg.input_shape = {1, 8, 8};
  EmuServer server(
      make_model(),
      EmuEngine::Builder().scenario(scenario).backend(backend).build(), cfg);
  std::vector<std::future<InferResult>> futs(16);
  int submitted = 0;
  while (submitted < 16) {
    const int before = submitted;
    const int upto = std::min(16, submitted + batch);
    for (; submitted < upto; ++submitted)
      EXPECT_TRUE(server.try_submit(make_sample(submitted), &futs[submitted]));
    EXPECT_EQ(server.run_once(), upto - before);
  }
  if (snap) *snap = server.telemetry();
  std::vector<Tensor> outs(16);
  for (int i = 0; i < 16; ++i) outs[i] = futs[i].get().output;
  return outs;
}

/// Offline per-sample references on the default (sharded) engine.
std::vector<Tensor> offline_refs(const std::string& scenario,
                                 const std::string& backend = "sharded") {
  auto model = make_model();
  const EmuEngine offline =
      EmuEngine::Builder().scenario(scenario).backend(backend).build();
  std::vector<Tensor> refs;
  for (int i = 0; i < 16; ++i)
    refs.push_back(model->forward(offline.context(), make_sample(i), false));
  return refs;
}

void check_grouped_matrix(const std::string& scenario,
                          const std::string& backend) {
  const std::vector<Tensor> refs = offline_refs(scenario);
  for (int batch : {1, 4, 16}) {
    TelemetrySnapshot snap;
    const std::vector<Tensor> got =
        serve_all(scenario, backend, batch, /*compile=*/false, &snap);
    for (int i = 0; i < 16; ++i)
      expect_bitwise_equal(got[i], refs[i],
                           scenario + " " + backend + " batch=" +
                               std::to_string(batch) + " sample=" +
                               std::to_string(i));
    if (batch > 1) {
      // Merges happened, and every merged dispatch carried the full
      // micro-batch (requests arrive in exact batches here).
      EXPECT_GT(snap.gemms_grouped, 0u) << scenario << " " << backend;
      EXPECT_EQ(snap.grouped_samples,
                snap.gemms_grouped * static_cast<uint64_t>(batch))
          << scenario << " " << backend << " batch=" << batch;
    } else {
      // A single-sample batch has nothing to merge.
      EXPECT_EQ(snap.gemms_grouped, 0u) << scenario << " " << backend;
    }
  }
}

}  // namespace

TEST(GroupedServing, EagerSrAllBackendsMatchOffline) {
  // Both bit-accurate backends that honor seed periods: the fused kernel
  // (sharded) and the seed MacUnit golden path (reference).
  check_grouped_matrix("eager_sr:e5m2/e6m5:r=9:subON", "sharded");
  check_grouped_matrix("eager_sr:e5m2/e6m5:r=9:subON", "reference");
}

TEST(GroupedServing, LazySrAndRnMatchOffline) {
  check_grouped_matrix("lazy_sr:e5m2/e6m5:r=9:subON", "sharded");
  check_grouped_matrix("rn:e5m2/e6m5:subON", "sharded");
}

TEST(GroupedServing, Fp32GroupedMatchesOffline) {
  // No randomness in fp32 — grouping is vacuously bitwise, and the merged
  // dispatch telemetry still counts.
  const std::vector<Tensor> refs = offline_refs("fp32", "fp32");
  TelemetrySnapshot snap;
  const std::vector<Tensor> got =
      serve_all("fp32", "fp32", 4, /*compile=*/false, &snap);
  for (int i = 0; i < 16; ++i)
    expect_bitwise_equal(got[i], refs[i], "fp32 sample " + std::to_string(i));
  EXPECT_GT(snap.gemms_grouped, 0u);
}

TEST(GroupedServing, CompiledGroupedMatchesOfflineAndCountsMerges) {
  // The compiled executor's grouped path: one wide fused kernel per GEMM
  // op (wide im2col pack for conv, zero-copy multi-row dispatch for
  // linear), still bitwise vs the offline eager forward.
  const std::string scenario = "eager_sr:e5m2/e6m5:r=9:subON";
  const std::vector<Tensor> refs = offline_refs(scenario);
  for (int batch : {1, 4, 16}) {
    TelemetrySnapshot snap;
    const std::vector<Tensor> got =
        serve_all(scenario, "sharded", batch, /*compile=*/true, &snap);
    for (int i = 0; i < 16; ++i)
      expect_bitwise_equal(got[i], refs[i],
                           "compiled grouped batch=" + std::to_string(batch) +
                               " sample=" + std::to_string(i));
    if (batch > 1) {
      EXPECT_GT(snap.gemms_grouped, 0u);
    }
  }
}

TEST(GroupedServing, SystolicBackendFallsBackToPerSamplePath) {
  // The systolic backend seeds per PE, not per (i, j) hash — it cannot
  // honor seed periods, so supports_grouped() is false and the session
  // serves each sample on its own: bits match the same backend offline,
  // and no merged dispatch is ever recorded.
  const std::string scenario = "eager_sr:e5m2/e6m5:r=9:subON";
  const std::vector<Tensor> refs = offline_refs(scenario, "systolic");
  TelemetrySnapshot snap;
  const std::vector<Tensor> got =
      serve_all(scenario, "systolic", 4, /*compile=*/false, &snap);
  for (int i = 0; i < 16; ++i)
    expect_bitwise_equal(got[i], refs[i],
                         "systolic fallback sample " + std::to_string(i));
  EXPECT_EQ(snap.gemms_grouped, 0u);
  EXPECT_EQ(snap.grouped_samples, 0u);
}
