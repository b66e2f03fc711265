// Checkpoint loads against a live compiled serving session: a successful
// load must flow into the compiled planes through Param::version — each
// stale plane rebuilt exactly once, observed on the compile_rebuilds
// counter — and a failed load must leave the old compiled state serving
// bitwise, which only holds because read_checkpoint stages and validates
// the whole file before touching a single parameter.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"
#include "nn/model_zoo.hpp"
#include "serve/emu_server.hpp"

using namespace srmac;

namespace {

constexpr const char* kScenario = "eager_sr:e5m2/e6m5:r=9:subON";
constexpr int kProbe = 4;  ///< samples compared per serving round

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.numel()) * sizeof(float)))
      << what;
}

/// Offline forward references for the given weights-seed.
std::vector<Tensor> offline_refs(const ModelSpec& spec, uint64_t init_seed) {
  auto model = spec.build(init_seed);
  const EmuEngine engine = EmuEngine::Builder().scenario(kScenario).build();
  std::vector<Tensor> refs;
  for (int i = 0; i < kProbe; ++i)
    refs.push_back(model->forward(engine.context(), spec.sample(i), false));
  return refs;
}

/// Serializes the weights of a fresh build(init_seed) of `spec`.
std::string checkpoint_bytes(const ModelSpec& spec, uint64_t init_seed) {
  auto model = spec.build(init_seed);
  std::vector<Param*> params;
  model->collect_params(params);
  std::ostringstream os(std::ios::binary);
  write_checkpoint(os, params, kScenario, spec.name);
  return os.str();
}

/// One synchronous serving round; outputs must match `refs` bitwise.
void serve_round(EmuServer& server, const ModelSpec& spec,
                 const std::vector<Tensor>& refs, const std::string& what) {
  for (int i = 0; i < kProbe; ++i) {
    std::future<InferResult> f;
    ASSERT_TRUE(server.try_submit(spec.sample(i), &f));
    ASSERT_EQ(server.run_once(), 1);
    expect_bitwise_equal(f.get().output, refs[i],
                         what + ", sample " + std::to_string(i));
  }
}

}  // namespace

TEST(CompiledCheckpoint, LoadRebuildsEachPlaneExactlyOnce) {
  const ModelSpec spec = *ModelSpec::parse("mlp:24,2");
  constexpr uint64_t kSeedA = 0xA11CE, kSeedB = 0xB0B;
  const std::vector<Tensor> refs_a = offline_refs(spec, kSeedA);
  const std::vector<Tensor> refs_b = offline_refs(spec, kSeedB);

  ServeConfig cfg;
  cfg.start_thread = false;
  cfg.input_shape = spec.input_shape();
  EmuServer server(
      spec.build(kSeedA),
      EmuEngine::Builder().scenario(kScenario).backend("sharded").build(),
      cfg);
  ASSERT_NE(server.compiled(), nullptr);
  const uint64_t planes = server.compiled()->stats().planes_packed;
  ASSERT_GT(planes, 0u);

  // Round 1: the compiled session serves seed-A weights; nothing rebuilt.
  serve_round(server, spec, refs_a, "pre-load");
  EXPECT_EQ(server.telemetry().compile_rebuilds, 0u);

  // Load seed-B weights into the live model. The version bumps must make
  // the next micro-batch rebuild every plane — and only that batch: the
  // rebuild happens exactly once, not per request.
  {
    std::vector<Param*> params;
    server.model().collect_params(params);
    std::istringstream is(checkpoint_bytes(spec, kSeedB), std::ios::binary);
    const CheckpointMeta meta = read_checkpoint(is, params);
    EXPECT_EQ(meta.model, spec.name);
  }
  serve_round(server, spec, refs_b, "post-load");
  EXPECT_EQ(server.telemetry().compile_rebuilds, planes);
  serve_round(server, spec, refs_b, "post-load steady");
  EXPECT_EQ(server.telemetry().compile_rebuilds, planes);
}

TEST(CompiledCheckpoint, FailedLoadLeavesOldCompiledStateServing) {
  const ModelSpec spec = *ModelSpec::parse("mlp:24,2");
  constexpr uint64_t kSeedA = 0xA11CE, kSeedC = 0xCAFE;
  const std::vector<Tensor> refs_a = offline_refs(spec, kSeedA);

  ServeConfig cfg;
  cfg.start_thread = false;
  cfg.input_shape = spec.input_shape();
  EmuServer server(
      spec.build(kSeedA),
      EmuEngine::Builder().scenario(kScenario).backend("sharded").build(),
      cfg);
  serve_round(server, spec, refs_a, "pre-corruption");

  // Corrupt the *last* tensor's payload: every earlier record parses and
  // CRC-checks clean, so a streaming (non-staged) loader would already
  // have overwritten most of the model by the time the mismatch surfaces.
  std::string bad = checkpoint_bytes(spec, kSeedC);
  ASSERT_GT(bad.size(), 8u);
  bad[bad.size() - 5] ^= 0x40;
  std::vector<Param*> params;
  server.model().collect_params(params);
  std::vector<uint64_t> versions;
  for (const Param* p : params) versions.push_back(p->version);
  {
    std::istringstream is(bad, std::ios::binary);
    try {
      read_checkpoint(is, params);
      FAIL() << "corrupt checkpoint loaded";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointErrorKind::kCorrupt);
    }
  }
  // No parameter was touched (versions unchanged), no plane rebuilds, and
  // the session still serves the seed-A bits.
  for (size_t p = 0; p < params.size(); ++p)
    EXPECT_EQ(params[p]->version, versions[p]) << params[p]->name;
  serve_round(server, spec, refs_a, "post-corruption");
  EXPECT_EQ(server.telemetry().compile_rebuilds, 0u);
}
