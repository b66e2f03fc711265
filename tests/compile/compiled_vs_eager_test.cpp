// The serving differential harness — the proof behind docs/COMPILER.md's
// headline claim: every served wave runs the compiled program, and its
// outputs are bitwise identical to the offline per-sample model.forward
// (the definition of the model's arithmetic), in discrete and continuous
// sessions alike, across model-zoo architectures, a bottleneck-block model,
// adder kinds, quantization formats, random-bit widths, subnormal modes,
// shard counts, and micro-batch sizes — while doing zero plane packing and
// zero dispatch-layer quantization per steady-state request (the telemetry
// invariant that defines "compiled"). Also pins the stage split continuous
// batching advances by, and what the compiled executor books as GEMM work.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "compile/model_compiler.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/model_zoo.hpp"
#include "nn/resnet.hpp"
#include "rng/xoshiro.hpp"
#include "serve/emu_server.hpp"
#include "util/thread_pool.hpp"

using namespace srmac;

namespace {

constexpr int kRequests = 16;

/// One model under test: how to build it, its per-sample input shape, and
/// its deterministic sample stream.
struct Case {
  std::string name;
  std::function<std::unique_ptr<Sequential>()> build;
  std::vector<int> input_shape;
  std::function<Tensor(int)> sample;
};

Case zoo_case(const std::string& spec_str) {
  std::string err;
  const auto parsed = ModelSpec::parse(spec_str, &err);
  EXPECT_TRUE(parsed) << err;
  const ModelSpec spec = *parsed;
  return Case{spec_str, [spec] { return spec.build(); }, spec.input_shape(),
              [spec](int i) { return spec.sample(i); }};
}

/// Stem conv + two BottleneckBlocks (projection and identity shortcuts),
/// the ResNet-50 building block the zoo grammar does not name.
Case bottleneck_case() {
  auto build = [] {
    auto net = std::make_unique<Sequential>();
    net->add(std::make_unique<Conv2d>(3, 8, 3));
    net->add(std::make_unique<BatchNorm2d>(8));
    net->add(std::make_unique<ReLU>());
    net->add(std::make_unique<BottleneckBlock>(8, 4, 16, 2));
    net->add(std::make_unique<BottleneckBlock>(16, 4, 16, 1));
    net->add(std::make_unique<GlobalAvgPool>());
    net->add(std::make_unique<Linear>(16, 5));
    he_init(*net, 0xB077);
    return net;
  };
  auto sample = [](int i) {
    Tensor x({1, 3, 8, 8});
    Xoshiro256 rng(500 + static_cast<uint64_t>(i));
    for (int64_t j = 0; j < x.numel(); ++j)
      x[j] = static_cast<float>(rng.normal());
    return x;
  };
  return Case{"bottleneck", build, {3, 8, 8}, sample};
}

std::vector<Case> all_cases() {
  return {zoo_case("mlp:32,3"), zoo_case("resnet20:8"),
          zoo_case("vgg_mini:4,6,8"), bottleneck_case()};
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.numel()) * sizeof(float)))
      << what;
}

uint64_t shard_packs(const TelemetrySnapshot& t) {
  return std::accumulate(t.planes_packed_per_shard.begin(),
                         t.planes_packed_per_shard.end(), uint64_t{0});
}

/// Serves kRequests samples through one session in micro-batches of
/// exactly `batch`, returning the outputs in submission order. A discrete
/// session resolves each micro-batch in one wave; a continuous one in
/// exactly stages() waves. When `steady` is non-null, the telemetry sink is
/// reset after the first pass and *steady receives the snapshot covering
/// only the two full batches served after it.
std::vector<Tensor> serve_all(const Case& c, const std::string& scenario,
                              const std::string& backend, int batch,
                              bool continuous,
                              TelemetrySnapshot* steady = nullptr) {
  ServeConfig cfg;
  cfg.max_batch = batch;
  cfg.queue_capacity = 64;
  cfg.start_thread = false;  // deterministic run_once harness
  cfg.continuous = continuous;
  cfg.input_shape = c.input_shape;
  EmuServer server(
      c.build(),
      EmuEngine::Builder().scenario(scenario).backend(backend).build(), cfg);
  const CompiledModel* cm = server.compiled();
  EXPECT_NE(cm, nullptr) << c.name << " " << backend;
  if (!cm) return {};
  EXPECT_GT(cm->stats().planes_packed, 0u) << c.name;
  EXPECT_GT(cm->stats().gemm_ops, 0u) << c.name;
  EXPECT_EQ(server.stages(), cm->stages());
  const int waves = continuous ? static_cast<int>(cm->stages()) : 1;

  auto run_cohort = [&](int n) {
    for (int w = 1; w < waves; ++w)
      EXPECT_EQ(server.run_once(), 0) << c.name << " wave " << w;
    EXPECT_EQ(server.run_once(), n) << c.name << " final wave";
  };
  std::vector<std::future<InferResult>> futs(kRequests);
  int submitted = 0;
  while (submitted < kRequests) {
    const int before = submitted;
    const int upto = std::min(kRequests, submitted + batch);
    for (; submitted < upto; ++submitted)
      EXPECT_TRUE(server.try_submit(c.sample(submitted), &futs[submitted]));
    run_cohort(upto - before);
  }
  if (steady) {
    // Everything up to here — session compile included — is warmup.
    server.telemetry_sink().reset();
    for (int round = 0; round < 2; ++round) {
      std::vector<std::future<InferResult>> extra(batch);
      for (int i = 0; i < batch; ++i)
        EXPECT_TRUE(server.try_submit(c.sample(i), &extra[i]));
      run_cohort(batch);
      for (auto& f : extra) f.get();
    }
    *steady = server.telemetry();
  }

  std::vector<Tensor> outs(kRequests);
  for (int i = 0; i < kRequests; ++i) outs[i] = futs[i].get().output;
  return outs;
}

/// The differential core: discrete and continuous compiled serving vs the
/// offline per-sample forward, all bitwise equal, at batch 1 / 4 / 16.
void check_case(const Case& c, const std::string& scenario,
                const std::string& backend) {
  const std::string tag = c.name + " " + scenario + " " + backend;
  // Offline references on the scenario's default engine (sharded, or the
  // plain fp32 baseline for the fp32 scenario): one sample per forward.
  auto offline_model = c.build();
  const EmuEngine offline = EmuEngine::Builder().scenario(scenario).build();
  std::vector<Tensor> refs;
  for (int i = 0; i < kRequests; ++i)
    refs.push_back(offline_model->forward(offline.context(), c.sample(i),
                                          false));

  for (int batch : {1, 4, 16}) {
    for (const bool continuous : {false, true}) {
      const std::string bt = tag + " batch=" + std::to_string(batch) +
                             (continuous ? " continuous" : " discrete");
      const std::vector<Tensor> served =
          serve_all(c, scenario, backend, batch, continuous);
      ASSERT_EQ(served.size(), static_cast<size_t>(kRequests)) << bt;
      for (int i = 0; i < kRequests; ++i)
        expect_bitwise_equal(served[i], refs[i],
                             bt + " vs offline, sample " + std::to_string(i));
    }
  }
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::unique_ptr<CompiledModel> compile_for(Sequential& model,
                                           const EmuEngine& engine,
                                           const Case& c, int max_batch) {
  ModelCompiler::Options opts;
  opts.input_shape = c.input_shape;
  opts.max_batch = max_batch;
  return ModelCompiler(engine).compile(model, opts);
}

}  // namespace

// ---- the fuzz matrix: models x adder kinds x formats x r x subnormals ----

TEST(CompiledVsEager, MlpAcrossAdderKinds) {
  // All three adder kinds plus the fp32 baseline on the MLP graph (its
  // Flatten lowers to a stage with no ops; Linear GEMMs; fused bias+ReLU
  // epilogues).
  const Case c = zoo_case("mlp:32,3");
  check_case(c, "eager_sr:e5m2/e6m5:r=9:subON", "sharded");
  check_case(c, "lazy_sr:e4m3/e5m6:r=3:subOFF", "sharded");
  check_case(c, "rn:e5m2/e6m5:subON", "sharded");
  check_case(c, "fp32", "fp32");
}

TEST(CompiledVsEager, Resnet20AcrossAdderKinds) {
  // The residual graph: stem conv+BN+ReLU fusion, every BasicBlock fork
  // salt, projection shortcuts, joins, GAP, FC.
  const Case c = zoo_case("resnet20:8");
  check_case(c, "eager_sr:e5m2/e6m5:r=9:subON", "sharded");
  check_case(c, "lazy_sr:e5m2/e6m5:r=1:subON", "sharded");
  check_case(c, "rn:e4m3/e6m5:subOFF", "sharded");
}

TEST(CompiledVsEager, VggMiniAcrossFormats) {
  // Conv+BN+ReLU chains with MaxPool between them, plus a wider format and
  // r sweep; also the fp32 lowering of the same conv graph.
  const Case c = zoo_case("vgg_mini:4,6,8");
  check_case(c, "eager_sr:e4m3/e7m8:r=17:subOFF", "sharded");
  check_case(c, "lazy_sr:e5m2/e6m5:r=9:subON", "sharded");
  check_case(c, "rn:e5m2/e6m5:subON", "sharded");
  check_case(c, "fp32", "fp32");
}

TEST(CompiledVsEager, BottleneckAcrossAdderKinds) {
  // Three convs per block with fork salts 1..3, the projection at salt 4,
  // and an identity-shortcut block.
  const Case c = bottleneck_case();
  check_case(c, "eager_sr:e5m2/e6m5:r=9:subON", "sharded");
  check_case(c, "lazy_sr:e5m2/e6m5:r=9:subON", "sharded");
  check_case(c, "rn:e5m2/e6m5:subON", "sharded");
}

TEST(CompiledVsEager, ShardSweepKeepsBits) {
  // The offline references dispatch through the sharded backend, whose
  // shard count is pure scheduling; the compiled executor never reads it.
  for (int shards : {1, 3}) {
    ThreadPool::set_default_shards(shards);
    check_case(zoo_case("resnet20:8"), "eager_sr:e5m2/e6m5:r=9:subON",
               "sharded");
  }
  ThreadPool::set_default_shards(0);  // restore auto for other tests
}

// ---- the stage split continuous batching advances by ----

TEST(CompiledVsEager, StagesComposeToTheWholeProgram) {
  // Running the stages one at a time, with the activations copied out and
  // back in between, gives the bits of one whole-program call and books
  // the same GEMM and MAC counts.
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    auto model = c.build();
    EmuEngine engine = EmuEngine::Builder()
                           .scenario("eager_sr:e5m2/e6m5:r=9:subON")
                           .build();
    auto cm = compile_for(*model, engine, c, 4);
    ASSERT_GT(cm->stages(), 1u);
    std::vector<Tensor> whole, staged;
    for (int i = 0; i < 4; ++i) {
      whole.push_back(c.sample(i));
      staged.push_back(c.sample(i));
    }
    engine.telemetry().reset();
    cm->forward_batch(whole, 0, cm->stages());
    const TelemetrySnapshot one_call = engine.telemetry().snapshot();
    engine.telemetry().reset();
    for (size_t s = 0; s < cm->stages(); ++s) {
      std::vector<Tensor> copies = staged;  // out and back in
      cm->forward_batch(copies, s, s + 1);
      staged = copies;
    }
    const TelemetrySnapshot by_stage = engine.telemetry().snapshot();
    for (int i = 0; i < 4; ++i)
      expect_bitwise_equal(staged[i], whole[i],
                           c.name + " staged vs whole, sample " +
                               std::to_string(i));
    EXPECT_EQ(by_stage.gemms, one_call.gemms);
    EXPECT_EQ(by_stage.macs, one_call.macs);
    EXPECT_EQ(by_stage.compile_activation_bytes,
              one_call.compile_activation_bytes);
  }
}

// ---- what the compiled executor books as GEMM work ----

TEST(CompiledVsEager, WaveBooksKernelCallsAndMacs) {
  // One compiled wave of n samples records one GEMM per GEMM op (the op's
  // one wide kernel call), n times the per-sample MACs of the offline
  // forward, and kernel seconds no larger than the wave's wall time.
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    auto model = c.build();
    EmuEngine engine = EmuEngine::Builder()
                           .scenario("eager_sr:e5m2/e6m5:r=9:subON")
                           .build();
    engine.telemetry().reset();
    model->forward(engine.context(), c.sample(0), false);
    const uint64_t macs_per_sample = engine.telemetry().snapshot().macs;
    ASSERT_GT(macs_per_sample, 0u);

    constexpr int n = 5;
    auto cm = compile_for(*model, engine, c, n);
    std::vector<Tensor> xs;
    for (int i = 0; i < n; ++i) xs.push_back(c.sample(i));
    engine.telemetry().reset();
    const double t0 = now_s();
    cm->forward_batch(xs, 0, cm->stages());
    const double wall = now_s() - t0;
    const TelemetrySnapshot snap = engine.telemetry().snapshot();
    EXPECT_EQ(snap.gemms, cm->stats().gemm_ops);
    EXPECT_EQ(snap.macs, n * macs_per_sample);
    EXPECT_GT(snap.seconds, 0.0);
    EXPECT_LE(snap.seconds, wall);
    ASSERT_TRUE(snap.per_backend.count("compiled"));
    EXPECT_EQ(snap.per_backend.at("compiled").gemms, cm->stats().gemm_ops);
  }
}

// ---- the zero-overhead invariant: what "compiled" means in counters ----

TEST(CompiledVsEager, SteadyStateDoesNoPackingOrRequantization) {
  for (const char* spec : {"mlp:32,3", "resnet20:8", "vgg_mini:4,6,8"}) {
    SCOPED_TRACE(spec);
    for (const bool continuous : {false, true}) {
      TelemetrySnapshot steady;
      serve_all(zoo_case(spec), "eager_sr:e5m2/e6m5:r=9:subON", "sharded",
                /*batch=*/16, continuous, &steady);
      // The per-call costs of the layers' own dispatch must be absent: no
      // weight/operand plane was packed by any shard, no bytes went
      // through the dispatch layer's quantization accounting, and no
      // compiled plane was rebuilt (the weights did not change).
      EXPECT_EQ(steady.bytes_quantized, 0u);
      EXPECT_EQ(shard_packs(steady), 0u);
      EXPECT_EQ(steady.compile_planes_packed, 0u);
      EXPECT_EQ(steady.compile_rebuilds, 0u);
      // Honest per-request floor: activations still quantize (inputs
      // arrive as floats in any mode) and the GEMMs still run — under the
      // "compiled" backend row.
      EXPECT_GT(steady.compile_activation_bytes, 0u);
      EXPECT_GT(steady.gemms, 0u);
      ASSERT_TRUE(steady.per_backend.count("compiled"));
      EXPECT_GT(steady.per_backend.at("compiled").gemms, 0u);
      EXPECT_GT(steady.serve_requests, 0u);
    }
  }
}
