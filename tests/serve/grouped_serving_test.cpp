// Grouped same-shape execution (docs/SERVING.md): each GEMM op of the
// compiled program runs a whole micro-batch as ONE wide kernel, and the
// outputs stay bitwise identical to the offline per-sample forward —
// across adder kinds and batch sizes. Also pins the grouped telemetry
// (gemms_grouped / grouped_samples) and the fallback rule: a session whose
// backend (reference, systolic) or layer the compiler rejects serves each
// sample through model.forward on its own, bitwise, with no merged
// dispatch.
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

/// A layer the compiler has no lowering rule for (an identity).
class OpaqueLayer : public Layer {
 public:
  Tensor forward(const ComputeContext&, const Tensor& x, bool) override {
    return x;
  }
  Tensor backward(const ComputeContext&, const Tensor& g) override {
    return g;
  }
  std::string name() const override { return "opaque"; }
};

// Conv + composite block + head: exercises the compiled conv op (wide
// im2col panel, col_period), the BasicBlock lowering, and the Linear op
// (stacked A, row_period). `opaque` inserts a layer the compiler rejects.
std::unique_ptr<Sequential> make_model(bool opaque = false) {
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Conv2d>(1, 4, 3));
  net->add(std::make_unique<ReLU>());
  if (opaque) net->add(std::make_unique<OpaqueLayer>());
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

struct Served {
  std::vector<Tensor> outs;
  TelemetrySnapshot snap;
  bool compiled = false;
};

/// Serves 16 deterministic samples in micro-batches of exactly `batch`
/// through one session; returns the outputs, the session's telemetry, and
/// whether it ran the compiled program.
Served serve_all(const std::string& scenario, const std::string& backend,
                 int batch, bool opaque = false, bool continuous = false) {
  ServeConfig cfg;
  cfg.max_batch = batch;
  cfg.queue_capacity = 32;
  cfg.start_thread = false;
  cfg.continuous = continuous;
  cfg.input_shape = {1, 8, 8};
  EmuServer server(
      make_model(opaque),
      EmuEngine::Builder().scenario(scenario).backend(backend).build(), cfg);
  std::vector<std::future<InferResult>> futs(16);
  int submitted = 0;
  while (submitted < 16) {
    const int before = submitted;
    const int upto = std::min(16, submitted + batch);
    for (; submitted < upto; ++submitted)
      EXPECT_TRUE(server.try_submit(make_sample(submitted), &futs[submitted]));
    // The per-sample fallback is one stage: even a continuous session
    // resolves its cohort in a single wave.
    EXPECT_EQ(server.run_once(), upto - before);
  }
  Served r;
  r.snap = server.telemetry();
  r.compiled = server.compiled() != nullptr;
  for (int i = 0; i < 16; ++i) r.outs.push_back(futs[i].get().output);
  return r;
}

/// Offline per-sample references on `backend`.
std::vector<Tensor> offline_refs(const std::string& scenario,
                                 const std::string& backend = "sharded",
                                 bool opaque = false) {
  auto model = make_model(opaque);
  const EmuEngine offline =
      EmuEngine::Builder().scenario(scenario).backend(backend).build();
  std::vector<Tensor> refs;
  for (int i = 0; i < 16; ++i)
    refs.push_back(model->forward(offline.context(), make_sample(i), false));
  return refs;
}

void check_grouped_matrix(const std::string& scenario) {
  const std::vector<Tensor> refs = offline_refs(scenario);
  for (int batch : {1, 4, 16}) {
    const Served got = serve_all(scenario, "sharded", batch);
    EXPECT_TRUE(got.compiled);
    for (int i = 0; i < 16; ++i)
      expect_bitwise_equal(got.outs[i], refs[i],
                           scenario + " batch=" + std::to_string(batch) +
                               " sample=" + std::to_string(i));
    if (batch > 1) {
      // Merges happened, and every merged dispatch carried the full
      // micro-batch (requests arrive in exact batches here).
      EXPECT_GT(got.snap.gemms_grouped, 0u) << scenario;
      EXPECT_EQ(got.snap.grouped_samples,
                got.snap.gemms_grouped * static_cast<uint64_t>(batch))
          << scenario << " batch=" << batch;
    } else {
      // A single-sample batch has nothing to merge.
      EXPECT_EQ(got.snap.gemms_grouped, 0u) << scenario;
    }
  }
}

/// The fallback contract: the session did not compile, served every
/// sample bitwise against the same backend offline, and never recorded a
/// merged dispatch — discrete and continuous alike. Its GEMMs go through
/// the layers' matmul dispatch, whose quantization counter must show them
/// (the control for the compiled sessions' zero).
void check_fallback(const std::string& backend, bool opaque) {
  const std::string scenario = "eager_sr:e5m2/e6m5:r=9:subON";
  const std::vector<Tensor> refs = offline_refs(scenario, backend, opaque);
  for (const bool continuous : {false, true}) {
    const Served got = serve_all(scenario, backend, 4, opaque, continuous);
    const std::string what = backend + (opaque ? " opaque" : "") +
                             (continuous ? " continuous" : " discrete");
    EXPECT_FALSE(got.compiled) << what;
    for (int i = 0; i < 16; ++i)
      expect_bitwise_equal(got.outs[i], refs[i],
                           what + " sample " + std::to_string(i));
    EXPECT_EQ(got.snap.gemms_grouped, 0u) << what;
    EXPECT_EQ(got.snap.grouped_samples, 0u) << what;
    EXPECT_EQ(got.snap.compile_activation_bytes, 0u) << what;
    EXPECT_GT(got.snap.bytes_quantized, 0u) << what;
  }
}

}  // namespace

TEST(GroupedServing, AllAdderKindsMatchOffline) {
  check_grouped_matrix("eager_sr:e5m2/e6m5:r=9:subON");
  check_grouped_matrix("lazy_sr:e5m2/e6m5:r=9:subON");
  check_grouped_matrix("rn:e5m2/e6m5:subON");
}

TEST(GroupedServing, Fp32GroupedMatchesOffline) {
  // No randomness in fp32 — grouping is vacuously bitwise, and the merged
  // dispatch telemetry still counts.
  const std::vector<Tensor> refs = offline_refs("fp32", "fp32");
  const Served got = serve_all("fp32", "fp32", 4);
  EXPECT_TRUE(got.compiled);
  for (int i = 0; i < 16; ++i)
    expect_bitwise_equal(got.outs[i], refs[i],
                         "fp32 sample " + std::to_string(i));
  EXPECT_GT(got.snap.gemms_grouped, 0u);
}

TEST(GroupedServing, ReferenceBackendServesPerSample) {
  // The seed MacUnit golden path is not the fused kernel, so the compiler
  // rejects it.
  check_fallback("reference", /*opaque=*/false);
}

TEST(GroupedServing, SystolicBackendServesPerSample) {
  // The systolic model seeds per PE, not per (i, j) hash.
  check_fallback("systolic", /*opaque=*/false);
}

TEST(GroupedServing, UnloweredLayerServesPerSample) {
  check_fallback("sharded", /*opaque=*/true);
}
