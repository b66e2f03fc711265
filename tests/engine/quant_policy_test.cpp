// QuantPolicy and EmuEngine behavior: the HFP8 per-pass format switch
// reaching the quantizers through the real layer GEMMs, thread-count
// invariance of every registered backend through the backend dispatch,
// per-layer policy rules, and the builder/scenario grammar.
#include <gtest/gtest.h>

#include <vector>

#include "engine/cli.hpp"
#include "engine/emu_engine.hpp"
#include "nn/layers.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/tensor_ops.hpp"

namespace srmac {
namespace {

std::vector<float> random_matrix(int rows, int cols, uint64_t seed) {
  std::vector<float> m(static_cast<size_t>(rows) * cols);
  Xoshiro256 rng(seed);
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

/// HFP8 with a wide RN accumulator isolating input quantization: 1.125 is
/// exact in E4M3, a tie in E5M2 that RN resolves to 1.0.
QuantPolicy hfp8_probe_policy() {
  MacConfig cfg;
  cfg.mul_fmt = kFp8E4M3;
  cfg.acc_fmt = kFp32;
  cfg.adder = AdderKind::kRoundNearest;
  return QuantPolicy::hfp8(cfg);
}

TEST(QuantPolicy, PerPassFormatsAreData) {
  const QuantPolicy p = hfp8_probe_policy();
  EXPECT_EQ(p.mac_for(GemmPass::kForward).mul_fmt, kFp8E4M3);
  EXPECT_EQ(p.mac_for(GemmPass::kBackwardData).mul_fmt, kFp8E5M2);
  EXPECT_EQ(p.mac_for(GemmPass::kBackwardWeight).mul_fmt, kFp8E5M2);
  // Accumulator and adder untouched by the HFP8 switch.
  for (const GemmPass pass : {GemmPass::kForward, GemmPass::kBackwardData,
                              GemmPass::kBackwardWeight}) {
    EXPECT_EQ(p.mac_for(pass).acc_fmt, kFp32);
    EXPECT_EQ(p.mac_for(pass).adder, AdderKind::kRoundNearest);
  }
}

// The satellite's core assertion, through the real layer path: a Linear
// layer whose weight is 1.125 must emit 1.125 on forward (E4M3 keeps it)
// but backpropagate with the weight read as 1.0 (E5M2 RN ties-to-even) —
// i.e. the backward GEMMs actually quantize in mul_fmt_bwd, including the
// cached-weight-plane path.
TEST(QuantPolicy, Hfp8ReachesLayerGemms) {
  Linear layer(1, 1);
  layer.weight().value.at(0, 0) = 1.125f;
  layer.weight().bump();

  ComputeContext ctx = ComputeContext::emulated(MacConfig{});
  ctx.policy = hfp8_probe_policy();

  Tensor x({1, 1});
  x.at(0, 0) = 1.0f;
  const Tensor y = layer.forward(ctx, x, /*training=*/true);
  EXPECT_EQ(y.at(0, 0), 1.125f) << "forward keeps the E4M3 value";

  Tensor g({1, 1});
  g.at(0, 0) = 1.0f;
  const Tensor gx = layer.backward(ctx.backward(), g);
  EXPECT_EQ(gx.at(0, 0), 1.0f) << "backward reads the weight in E5M2";
  // dW = gout^T * x is a backward GEMM too: 1.0 * 1.0 quantized in E5M2.
  EXPECT_EQ(layer.weight().grad.at(0, 0), 1.0f);
}

// Satellite: results are invariant to the thread count through the new
// backend dispatch, for every registered built-in backend.
TEST(QuantPolicy, AllBackendsThreadInvariant) {
  const int M = 33, N = 26, K = 48;
  const auto A = random_matrix(M, K, 7), B = random_matrix(K, N, 8);
  MacConfig cfg;
  cfg.mul_fmt = kFp8E5M2;
  cfg.acc_fmt = kFp12;
  cfg.adder = AdderKind::kEagerSR;
  cfg.random_bits = 9;
  const QuantPolicy policy = QuantPolicy::uniform(cfg);

  for (const char* name : {"fp32", "reference", "sharded", "systolic"}) {
    ComputeContext one =
        ComputeContext::with_backend(name, policy, /*seed=*/3, /*threads=*/1);
    ComputeContext many =
        ComputeContext::with_backend(name, policy, /*seed=*/3, /*threads=*/0);
    std::vector<float> c1(static_cast<size_t>(M) * N, -1.0f);
    std::vector<float> cn(static_cast<size_t>(M) * N, -2.0f);
    matmul(one, M, N, K, A.data(), B.data(), c1.data());
    matmul(many, M, N, K, A.data(), B.data(), cn.data());
    EXPECT_EQ(c1, cn) << name;
  }
}

TEST(QuantPolicy, PerLayerRuleOverridesFormats) {
  // Give Linear layers an RN adder while the global policy runs eager SR.
  MacConfig cfg;
  cfg.adder = AdderKind::kEagerSR;
  cfg.random_bits = 9;
  LayerQuantRule rule;
  rule.adder = AdderKind::kRoundNearest;
  rule.acc_fmt = kFp16;
  const QuantPolicy policy =
      QuantPolicy::uniform(cfg).with_layer_rule("Linear", rule);

  ComputeContext ctx = ComputeContext::emulated(cfg);
  ctx.policy = policy;
  const ComputeContext linear_ctx = ctx.for_layer("Linear");
  EXPECT_EQ(linear_ctx.mac_config().adder, AdderKind::kRoundNearest);
  EXPECT_EQ(linear_ctx.mac_config().acc_fmt, kFp16);
  EXPECT_EQ(linear_ctx.backward().mac_config().adder, AdderKind::kRoundNearest);
  // Other layers keep the global policy.
  EXPECT_EQ(ctx.for_layer("Conv2d").mac_config().adder, AdderKind::kEagerSR);
}

TEST(EmuEngineBuilder, ScenarioSelectsBackendAndPolicy) {
  const EmuEngine fp32 = EmuEngine::Builder().scenario("fp32").build();
  EXPECT_EQ(fp32.backend().name(), "fp32");
  EXPECT_FALSE(fp32.context().bit_accurate());

  const EmuEngine sr = EmuEngine::Builder()
                           .scenario("eager_sr:e5m2/e6m5:r=9:subON")
                           .threads(2)
                           .seed(99)
                           .build();
  EXPECT_EQ(sr.backend().name(), "sharded");
  EXPECT_TRUE(sr.context().bit_accurate());
  EXPECT_EQ(sr.context().threads, 2);
  EXPECT_EQ(sr.context().seed, 99u);
  EXPECT_EQ(sr.policy().mac_for(GemmPass::kForward).random_bits, 9);

  const EmuEngine ref = EmuEngine::Builder()
                            .scenario("lazy_sr:e4m3/e6m5:r=4:subOFF")
                            .backend("reference")
                            .build();
  EXPECT_EQ(ref.backend().name(), "reference");
  EXPECT_EQ(ref.policy().mac_for(GemmPass::kForward).adder, AdderKind::kLazySR);

  const EmuEngine hfp8 =
      EmuEngine::Builder().scenario("eager_sr:e4m3/e6m5:r=9:subON").hfp8().build();
  EXPECT_EQ(hfp8.policy().mac_for(GemmPass::kForward).mul_fmt, kFp8E4M3);
  EXPECT_EQ(hfp8.policy().mac_for(GemmPass::kBackwardData).mul_fmt, kFp8E5M2);

  EXPECT_THROW(EmuEngine::Builder().scenario("not-a-scenario").build(),
               std::invalid_argument);
  EXPECT_THROW(EmuEngine::Builder().backend("no-such").build(),
               std::invalid_argument);
}

TEST(EmuEngineBuilder, CliHelperParsesSharedFlags) {
  const char* argv[] = {"prog", "--scenario=rn:e5m2/e6m5:r=0:subOFF",
                        "--backend=reference", "--seed=0x2A", "--threads=3",
                        "--unrelated-flag", "positional"};
  const EngineCliArgs args =
      parse_engine_cli(7, const_cast<char**>(argv));
  EXPECT_EQ(args.scenario, "rn:e5m2/e6m5:r=0:subOFF");
  EXPECT_EQ(args.backend, "reference");
  EXPECT_EQ(args.seed, 0x2Au);
  EXPECT_EQ(args.threads, 3);
  EXPECT_FALSE(args.hfp8);

  const EmuEngine engine = engine_or_die(args);
  EXPECT_EQ(engine.backend().name(), "reference");
  EXPECT_EQ(engine.policy().mac_for(GemmPass::kForward).adder,
            AdderKind::kRoundNearest);
  EXPECT_FALSE(engine.policy().mac_for(GemmPass::kForward).subnormals);
}

}  // namespace
}  // namespace srmac
