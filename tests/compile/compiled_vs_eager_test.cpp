// The compiled-serving differential harness — the proof behind
// docs/COMPILER.md's headline claim: a CompiledModel serves bitwise
// identically to the eager per-layer walk, and to an offline
// model.forward, across model-zoo architectures, adder kinds, quantization
// formats, random-bit widths, subnormal modes, shard counts, and
// micro-batch sizes — while doing zero plane packing and zero
// dispatch-layer quantization per steady-state request (the telemetry
// invariant that defines "compiled").
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "nn/model_zoo.hpp"
#include "serve/emu_server.hpp"
#include "util/thread_pool.hpp"

using namespace srmac;

namespace {

constexpr int kRequests = 16;

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

/// Serves kRequests deterministic samples through one session (compiled or
/// eager) in micro-batches of exactly `batch`, returning the outputs in
/// submission order. When `steady` is non-null, the telemetry sink is reset
/// after the first (warmup) micro-batch and *steady receives the snapshot
/// covering only the steady-state batches after it.
std::vector<Tensor> serve_all(const ModelSpec& spec,
                              const std::string& scenario,
                              const std::string& backend, int batch,
                              bool compile,
                              TelemetrySnapshot* steady = nullptr) {
  ServeConfig cfg;
  cfg.max_batch = batch;
  cfg.queue_capacity = 64;
  cfg.start_thread = false;  // deterministic run_once harness
  cfg.input_shape = spec.input_shape();
  cfg.compile = compile;
  EmuServer server(
      spec.build(),
      EmuEngine::Builder().scenario(scenario).backend(backend).build(), cfg);
  if (compile) {
    const CompiledModel* cm = server.compiled();
    EXPECT_NE(cm, nullptr);
    EXPECT_GT(cm->stats().planes_packed, 0u) << spec.name;
    EXPECT_GT(cm->stats().gemm_ops, 0u) << spec.name;
  } else {
    EXPECT_EQ(server.compiled(), nullptr);
  }

  std::vector<std::future<InferResult>> futs(kRequests);
  int submitted = 0;
  while (submitted < kRequests) {
    const int before = submitted;
    const int upto = std::min(kRequests, submitted + batch);
    for (; submitted < upto; ++submitted) {
      EXPECT_TRUE(server.try_submit(spec.sample(submitted), &futs[submitted]));
    }
    EXPECT_EQ(server.run_once(), upto - before);
  }
  if (steady) {
    // Everything up to here — session compile included — is warmup; the
    // steady-state invariants cover only the two full batches after the
    // reset.
    server.telemetry_sink().reset();
    for (int round = 0; round < 2; ++round) {
      std::vector<std::future<InferResult>> extra(batch);
      for (int i = 0; i < batch; ++i)
        EXPECT_TRUE(server.try_submit(spec.sample(i), &extra[i]));
      EXPECT_EQ(server.run_once(), batch);
      for (auto& f : extra) f.get();
    }
    *steady = server.telemetry();
  }

  std::vector<Tensor> outs(kRequests);
  for (int i = 0; i < kRequests; ++i) outs[i] = futs[i].get().output;
  return outs;
}

/// The differential core: offline forward refs vs eager serving vs
/// compiled serving, all three bitwise equal, at batch 1 / 4 / 16.
void check_case(const std::string& spec_str, const std::string& scenario,
                const std::string& backend) {
  std::string perr;
  const auto parsed = ModelSpec::parse(spec_str, &perr);
  ASSERT_TRUE(parsed) << perr;
  const ModelSpec& spec = *parsed;
  const std::string tag =
      spec_str + " " + scenario + " " + backend;

  // Offline references on the scenario's default engine (sharded, or the
  // plain fp32 baseline for the fp32 scenario): one sample per forward.
  auto offline_model = spec.build();
  const EmuEngine offline = EmuEngine::Builder().scenario(scenario).build();
  std::vector<Tensor> refs;
  for (int i = 0; i < kRequests; ++i)
    refs.push_back(
        offline_model->forward(offline.context(), spec.sample(i), false));

  for (int batch : {1, 4, 16}) {
    const std::string bt = tag + " batch=" + std::to_string(batch);
    const std::vector<Tensor> eager =
        serve_all(spec, scenario, backend, batch, /*compile=*/false);
    const std::vector<Tensor> compiled =
        serve_all(spec, scenario, backend, batch, /*compile=*/true);
    for (int i = 0; i < kRequests; ++i) {
      expect_bitwise_equal(eager[i], refs[i],
                           bt + " eager vs offline, sample " +
                               std::to_string(i));
      expect_bitwise_equal(compiled[i], refs[i],
                           bt + " compiled vs offline, sample " +
                               std::to_string(i));
    }
  }
}

}  // namespace

// ---- the fuzz matrix: specs x adder kinds x formats x r x subnormals ----

TEST(CompiledVsEager, MlpAcrossAdderKinds) {
  // All three adder kinds plus the fp32 baseline on the MLP graph
  // (Flatten fold, Linear GEMMs, fused bias+ReLU epilogues).
  check_case("mlp:32,3", "eager_sr:e5m2/e6m5:r=9:subON", "sharded");
  check_case("mlp:32,3", "lazy_sr:e4m3/e5m6:r=3:subOFF", "sharded");
  check_case("mlp:32,3", "rn:e5m2/e6m5:subON", "sharded");
  check_case("mlp:32,3", "fp32", "fp32");
}

TEST(CompiledVsEager, Resnet20AcrossAdderKinds) {
  // The residual graph: stem conv+BN+ReLU fusion, every BasicBlock fork
  // salt, projection shortcuts, joins, GAP, FC.
  check_case("resnet20:8", "eager_sr:e5m2/e6m5:r=9:subON", "sharded");
  check_case("resnet20:8", "lazy_sr:e5m2/e6m5:r=1:subON", "sharded");
  check_case("resnet20:8", "rn:e4m3/e6m5:subOFF", "sharded");
}

TEST(CompiledVsEager, VggMiniAcrossFormats) {
  // Conv+BN+ReLU chains with MaxPool between them, plus a wider format and
  // r sweep; also the fp32 lowering of the same conv graph.
  check_case("vgg_mini:4,6,8", "eager_sr:e4m3/e7m8:r=17:subOFF", "sharded");
  check_case("vgg_mini:4,6,8", "fp32", "fp32");
}

TEST(CompiledVsEager, ShardSweepKeepsBits) {
  // Shard count is pure scheduling for eager serving and invisible to the
  // compiled executor; both must hold bits across 1..4 shards.
  for (int shards : {1, 2, 3, 4}) {
    ThreadPool::set_default_shards(shards);
    check_case("resnet20:8", "eager_sr:e5m2/e6m5:r=9:subON", "sharded");
  }
  ThreadPool::set_default_shards(0);  // restore auto for other tests
}

// ---- the zero-overhead invariant: what "compiled" means in counters ----

TEST(CompiledVsEager, SteadyStateDoesNoPackingOrRequantization) {
  for (const char* spec : {"mlp:32,3", "resnet20:8", "vgg_mini:4,6,8"}) {
    SCOPED_TRACE(spec);
    const auto parsed = ModelSpec::parse(spec);
    ASSERT_TRUE(parsed);
    TelemetrySnapshot steady;
    serve_all(*parsed, "eager_sr:e5m2/e6m5:r=9:subON", "sharded",
              /*batch=*/16, /*compile=*/true, &steady);
    // The eager path's per-request costs must be absent: no weight/operand
    // plane was packed by any shard, no bytes went through the dispatch
    // layer's quantization accounting, and no compiled plane was rebuilt
    // (the weights did not change).
    EXPECT_EQ(steady.bytes_quantized, 0u);
    EXPECT_EQ(shard_packs(steady), 0u);
    EXPECT_EQ(steady.compile_planes_packed, 0u);
    EXPECT_EQ(steady.compile_rebuilds, 0u);
    // Honest per-request floor: activations still quantize (inputs arrive
    // as floats in any mode) and the GEMMs still run — under the
    // "compiled" backend row.
    EXPECT_GT(steady.compile_activation_bytes, 0u);
    EXPECT_GT(steady.gemms, 0u);
    ASSERT_TRUE(steady.per_backend.count("compiled"));
    EXPECT_GT(steady.per_backend.at("compiled").gemms, 0u);
    EXPECT_GT(steady.serve_requests, 0u);
  }
}

TEST(CompiledVsEager, EagerSteadyStateStillPacksPerBatch) {
  // Control for the invariant above: the same steady-state window on an
  // eager session keeps paying per-batch quantization through the dispatch
  // layer — the cost compilation exists to remove. Guards against the
  // counters going dark. The eager micro-batch runs grouped (one wide
  // dispatch per layer), so its cost shows in bytes_quantized.
  const auto parsed = ModelSpec::parse("resnet20:8");
  ASSERT_TRUE(parsed);
  TelemetrySnapshot steady;
  serve_all(*parsed, "eager_sr:e5m2/e6m5:r=9:subON", "sharded",
            /*batch=*/16, /*compile=*/false, &steady);
  EXPECT_GT(steady.bytes_quantized, 0u);
  EXPECT_GT(steady.gemms_grouped, 0u);
  EXPECT_EQ(steady.compile_activation_bytes, 0u);
}
