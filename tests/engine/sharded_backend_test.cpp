// The "sharded" backend (the fused engine under its registry name) and the
// one batch scheduler, MatmulBatch, which runs a batch's problems one per
// pool thread on every backend: bitwise parity with the "reference" golden
// path for single GEMMs, heterogeneous batches, the layers' backward with
// and without a weight-gradient bucket, Conv2d's fused passes at every
// thread count, and the cross-layer bucketing Sequential::backward
// performs; the batch and layer telemetry; and
// scheduling invariance at model level — SGD steps and gradients are
// bitwise equal at every thread count, on every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/compute_context.hpp"
#include "engine/registry.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/model_zoo.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/tensor_ops.hpp"
#include "train/optimizer.hpp"

namespace srmac {
namespace {

MacConfig paper_config() {
  MacConfig cfg;
  cfg.mul_fmt = kFp8E5M2;
  cfg.acc_fmt = kFp12;
  cfg.adder = AdderKind::kEagerSR;
  cfg.random_bits = 9;
  cfg.subnormals = true;
  return cfg;
}

std::vector<float> random_matrix(int rows, int cols, uint64_t seed) {
  std::vector<float> m(static_cast<size_t>(rows) * cols);
  Xoshiro256 rng(seed);
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(ShardedBackend, RegisteredAsTheFusedEngine) {
  const auto names = BackendRegistry::instance().names();
  EXPECT_NE(std::find(names.begin(), names.end(), "sharded"), names.end());
  const MatmulBackend* b = BackendRegistry::instance().get("sharded");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->name(), "sharded");
  EXPECT_TRUE(b->bit_accurate());
  EXPECT_TRUE(b->runs_fused_kernel());
}

TEST(ShardedBackend, SingleGemmMatchesReference) {
  const int M = 19, N = 23, K = 37;
  const auto A = random_matrix(M, K, 1), B = random_matrix(K, N, 2);
  const QuantPolicy policy = QuantPolicy::uniform(paper_config());
  std::vector<float> c_sharded(static_cast<size_t>(M) * N, -1.0f);
  std::vector<float> c_ref(static_cast<size_t>(M) * N, -2.0f);
  matmul(ComputeContext::with_backend("sharded", policy, /*seed=*/5), M, N, K,
         A.data(), B.data(), c_sharded.data());
  matmul(ComputeContext::with_backend("reference", policy, /*seed=*/5), M, N,
         K, A.data(), B.data(), c_ref.data());
  EXPECT_EQ(c_sharded, c_ref);
}

// A heterogeneous batch — different shapes, all three adder kinds,
// distinct seeds, two problems sharing one B plane — run one problem per
// pool thread is bit-identical to the sequential per-problem dispatch, on
// "sharded" and on "reference", uncapped and capped at two threads; and
// the two backends agree.
TEST(MatmulBatch, HeterogeneousBatchMatchesSequential) {
  struct Problem {
    int M, N, K;
    std::vector<float> A;
    const std::vector<float>* B;
    MacConfig cfg;
    uint64_t seed;
  };
  const auto B1 = random_matrix(40, 17, 12), B3 = random_matrix(33, 48, 15);
  MacConfig lazy = paper_config();
  lazy.adder = AdderKind::kLazySR;
  MacConfig rn = paper_config();
  rn.adder = AdderKind::kRoundNearest;
  const std::vector<Problem> problems = {
      {12, 17, 40, random_matrix(12, 40, 11), &B1, paper_config(), 7},
      {9, 17, 40, random_matrix(9, 40, 13), &B1, lazy, 8},
      {21, 48, 33, random_matrix(21, 33, 14), &B3, rn, 9},
      {6, 48, 33, random_matrix(6, 33, 16), &B3, paper_config(), 10},
  };
  auto run = [&](const char* backend, bool batched, int threads) {
    std::vector<std::vector<float>> c;
    for (const Problem& p : problems)
      c.emplace_back(static_cast<size_t>(p.M) * p.N, -1.0f);
    auto ctx_of = [&](const Problem& p) {
      return ComputeContext::with_backend(backend, QuantPolicy::uniform(p.cfg),
                                          p.seed, threads);
    };
    MatmulBatch batch(ctx_of(problems[0]));
    for (size_t i = 0; i < problems.size(); ++i) {
      const Problem& p = problems[i];
      if (batched)
        batch.add(ctx_of(p), p.M, p.N, p.K, p.A.data(), p.B->data(),
                  c[i].data());
      else
        matmul(ctx_of(p), p.M, p.N, p.K, p.A.data(), p.B->data(), c[i].data());
    }
    EXPECT_EQ(batch.size(), batched ? problems.size() : 0u);
    batch.flush();
    EXPECT_EQ(batch.size(), 0u);
    return c;
  };
  const auto r_seq = run("reference", /*batched=*/false, 0);
  for (const char* backend : {"sharded", "reference"}) {
    for (const int threads : {0, 2}) {
      const auto c_batch = run(backend, /*batched=*/true, threads);
      for (size_t i = 0; i < problems.size(); ++i)
        EXPECT_EQ(c_batch[i], r_seq[i])
            << backend << " threads=" << threads << " problem " << i;
    }
  }
}

// Conv2d / Linear backward called directly — no Sequential, so no bucket:
// the weight-gradient and data-gradient GEMMs both dispatch at once — on
// "sharded" reproduces the reference gradients bit for bit.
TEST(ShardedBackend, LayerBackwardWithoutBucketMatchesReference) {
  const QuantPolicy policy = QuantPolicy::uniform(paper_config());
  struct Run {
    std::vector<Tensor> grads;
    Tensor gx;
  };
  auto run = [&](const char* name, bool conv) {
    std::unique_ptr<Layer> layer;
    if (conv)
      layer = std::make_unique<Conv2d>(3, 4, 3);
    else
      layer = std::make_unique<Linear>(10, 6);
    he_init(*layer, 0xBEEF);
    const ComputeContext ctx =
        ComputeContext::with_backend(name, policy, /*seed=*/21);
    const Tensor x = conv ? Tensor({2, 3, 8, 8}, 0.25f) : Tensor({4, 10}, 0.5f);
    Tensor out = layer->forward(ctx, x, /*training=*/true);
    Tensor gout(out.shape(), 1.0f);
    Run r;
    r.gx = layer->backward(ctx.backward(), gout);
    std::vector<Param*> params;
    layer->collect_params(params);
    for (Param* p : params) r.grads.push_back(p->grad);
    return r;
  };
  for (const bool conv : {false, true}) {
    const Run ref = run("reference", conv);
    const Run sharded = run("sharded", conv);
    ASSERT_EQ(ref.grads.size(), sharded.grads.size());
    for (size_t i = 0; i < ref.grads.size(); ++i)
      EXPECT_TRUE(bitwise_equal(ref.grads[i], sharded.grads[i]))
          << (conv ? "conv" : "linear") << " param " << i;
    EXPECT_TRUE(bitwise_equal(ref.gx, sharded.gx)) << (conv ? "conv" : "linear");
  }
}

// A multi-layer model: Sequential::backward buckets the per-layer dW GEMMs
// into cross-layer MatmulBatch flushes — the gradients must still match the
// reference backend (which buckets the same way) bit for bit.
TEST(ShardedBackend, SequentialModelBackwardMatchesReference) {
  const QuantPolicy policy = QuantPolicy::uniform(paper_config());
  auto run = [&](const char* name) {
    Sequential model;
    model.add(std::make_unique<Conv2d>(2, 4, 3, /*stride=*/1, /*pad=*/0));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<Conv2d>(4, 4, 3, /*stride=*/1, /*pad=*/0));
    model.add(std::make_unique<Flatten>());
    model.add(std::make_unique<Linear>(4 * 6 * 6, 8));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<Linear>(8, 5));
    he_init(model, 0xCAFE);
    const ComputeContext ctx =
        ComputeContext::with_backend(name, policy, /*seed=*/33);
    const Tensor x({2, 2, 10, 10}, 0.125f);
    Tensor out = model.forward(ctx, x, /*training=*/true);
    Tensor gout(out.shape(), 0.5f);
    std::vector<Tensor> grads;
    Tensor gx = model.backward(ctx.backward(), gout);
    std::vector<Param*> params;
    model.collect_params(params);
    for (Param* p : params) grads.push_back(p->grad);
    grads.push_back(gx);
    return grads;
  };
  const auto ref = run("reference");
  const auto sharded = run("sharded");
  ASSERT_EQ(ref.size(), sharded.size());
  for (size_t i = 0; i < ref.size(); ++i)
    EXPECT_TRUE(bitwise_equal(ref[i], sharded[i])) << "tensor " << i;
}

// MatmulBatch records one batch + per-problem counters into the sink, and
// both operands of every problem as freshly quantized bytes.
TEST(MatmulBatch, TelemetryCountsBatches) {
  Telemetry sink;
  ComputeContext ctx = ComputeContext::with_backend(
      "sharded", QuantPolicy::uniform(paper_config()), /*seed=*/3);
  ctx.telemetry = &sink;
  const auto A = random_matrix(6, 12, 31), B = random_matrix(12, 8, 32);
  std::vector<float> c1(48), c2(48), c3(48);
  {
    MatmulBatch batch(ctx);
    batch.add(ctx, 6, 8, 12, A.data(), B.data(), c1.data());
    batch.add(ctx.fork(1), 6, 8, 12, A.data(), B.data(), c2.data());
    batch.add(ctx.fork(2), 6, 8, 12, A.data(), B.data(), c3.data());
    EXPECT_EQ(batch.size(), 3u);
    batch.flush();
    EXPECT_EQ(batch.size(), 0u);
  }
  const TelemetrySnapshot snap = sink.snapshot();
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.batch_problems, 3u);
  EXPECT_EQ(snap.gemms, 3u);
  EXPECT_EQ(snap.macs, 3ull * 6 * 8 * 12);
  // One byte per E5M2 value: A and B quantized once per problem.
  EXPECT_EQ(snap.bytes_quantized, 3ull * (6 * 12 + 12 * 8));
  ASSERT_EQ(snap.per_backend.count("sharded"), 1u);
  EXPECT_EQ(snap.per_backend.at("sharded").batches, 1u);
}

// A lone Conv2d's three GEMMs (forward, dW, dX) record one GEMM each with
// the float route's M, N and K, and bytes_quantized counts the codes each
// one quantized. The reference backend takes the float route, where every
// GEMM quantizes both of its operands: sum(M*K + K*N). On "sharded" each
// GEMM is one pass over quantized activations: the forward quantizes W and
// the input, dX W^T and dY, dW dY and the input in its own format.
TEST(LayerTelemetry, ConvCountsEveryOperandQuantized) {
  const uint64_t M = 4, K = 3 * 3 * 3, NL = 2 * 6 * 6;
  const uint64_t x_n = 2 * 3 * 6 * 6, dy_n = M * NL;
  for (const char* backend : {"sharded", "reference"}) {
    Telemetry sink;
    ComputeContext ctx = ComputeContext::with_backend(
        backend, QuantPolicy::uniform(paper_config()), /*seed=*/3);
    ctx.telemetry = &sink;
    Conv2d conv(3, 4, 3);
    he_init(conv, 5);
    Tensor x({2, 3, 6, 6});
    const auto xv = random_matrix(1, static_cast<int>(x.numel()), 41);
    std::copy(xv.begin(), xv.end(), x.data());
    const Tensor y = conv.forward(ctx, x, /*training=*/true);
    conv.backward(ctx.backward(), y);

    const TelemetrySnapshot snap = sink.snapshot();
    EXPECT_EQ(snap.gemms, 3u) << backend;
    EXPECT_EQ(snap.macs, 3 * M * NL * K) << backend;
    // One byte per E5M2 value.
    if (std::string(backend) == "sharded") {
      const uint64_t fwd = M * K + x_n, dx = K * M + dy_n, dw = dy_n + x_n;
      EXPECT_EQ(snap.bytes_quantized, fwd + dx + dw);
      EXPECT_EQ(snap.bytes_quantized, 1224u);
    } else {
      const auto operands = [](uint64_t m, uint64_t n, uint64_t k) {
        return m * k + k * n;
      };
      const uint64_t fwd = operands(M, NL, K);  // out = W * cols
      const uint64_t dw = operands(M, K, NL);   // dW = g * cols^T
      const uint64_t dx = operands(K, NL, M);   // dX = W^T * g
      EXPECT_EQ(snap.bytes_quantized, fwd + dw + dx);
    }
  }
}

// Conv2d's passes on "sharded" — the forward and the input gradient through
// gemm_conv_pass, the weight gradient packed straight from the input codes
// and accumulated into a gradient that already holds values — equal the
// reference backend's float route bit for bit at engine threads 1, 2 and
// 0, on shapes whose panel width N*L and tap count K fill no 16- or 4-lane
// group exactly, under eager SR, lazy SR, RN and HFP8. The 13x15 input is
// large enough for every pass, the weight gradient's pack included, to
// split across threads.
TEST(ShardedBackend, ConvPassesMatchReferenceAtEveryThreadCount) {
  struct Geometry {
    int in_ch, out_ch, k, stride, pad, H, W;
  };
  // On a batch of 3: N*L = 36 (3x4 outputs), 105 (5x7) or 585 (13x15).
  const Geometry geometries[] = {{3, 7, 3, 2, 1, 5, 7},
                                 {3, 7, 3, 1, 1, 5, 7},
                                 {5, 7, 1, 2, 0, 5, 7},
                                 {5, 7, 3, 1, 1, 13, 15}};
  MacConfig lazy = paper_config();
  lazy.adder = AdderKind::kLazySR;
  MacConfig rn = paper_config();
  rn.adder = AdderKind::kRoundNearest;
  const std::pair<const char*, QuantPolicy> policies[] = {
      {"eager", QuantPolicy::uniform(paper_config())},
      {"lazy", QuantPolicy::uniform(lazy)},
      {"rn", QuantPolicy::uniform(rn)},
      {"hfp8", QuantPolicy::hfp8(paper_config())}};
  for (const Geometry& g : geometries) {
    for (const auto& [name, policy] : policies) {
      auto run = [&](const char* backend, int threads) {
        Conv2d conv(g.in_ch, g.out_ch, g.k, g.stride, g.pad);
        he_init(conv, 0xC0DE);
        Tensor x({3, g.in_ch, g.H, g.W});
        const auto xv = random_matrix(1, static_cast<int>(x.numel()), 51);
        std::copy(xv.begin(), xv.end(), x.data());
        const ComputeContext ctx = ComputeContext::with_backend(
            backend, policy, /*seed=*/29, threads);
        std::vector<Tensor> out;
        out.push_back(conv.forward(ctx, x, /*training=*/true));
        Tensor gout(out[0].shape());
        const auto gv = random_matrix(1, static_cast<int>(gout.numel()), 52);
        std::copy(gv.begin(), gv.end(), gout.data());
        Tensor& grad = conv.weight().grad;
        const auto dv = random_matrix(1, static_cast<int>(grad.numel()), 53);
        std::copy(dv.begin(), dv.end(), grad.data());
        out.push_back(conv.backward(ctx.backward(), gout));
        out.push_back(grad);
        return out;
      };
      const std::vector<Tensor> ref = run("reference", 0);
      for (const int threads : {1, 2, 0}) {
        const std::vector<Tensor> got = run("sharded", threads);
        for (size_t i = 0; i < ref.size(); ++i)
          EXPECT_TRUE(bitwise_equal(got[i], ref[i]))
              << g.H << "x" << g.W << " k=" << g.k << " stride=" << g.stride
              << " " << name
              << " threads=" << threads << " tensor " << i
              << " (0 out, 1 dX, 2 dW)";
      }
    }
  }
}

// ---- scheduling invariance at model level ----

/// A batch of `n` deterministic samples of `spec` and their labels.
Tensor sample_batch(const ModelSpec& spec, int n) {
  std::vector<int> shape = spec.input_shape();
  shape.insert(shape.begin(), n);
  Tensor x(shape);
  for (int i = 0; i < n; ++i) {
    const Tensor s = spec.sample(100 + i);
    std::memcpy(x.data() + static_cast<size_t>(i) * s.numel(), s.data(),
                static_cast<size_t>(s.numel()) * sizeof(float));
  }
  return x;
}

const std::vector<int> kLabels = {3, 1, 4, 1};

// Three SGD steps of resnet20:16 at batch 4 on "sharded": the losses and
// the trained weights are bitwise equal whether every GEMM and every
// bucket runs on the caller (threads 1) or fans out over 2 or 4 threads.
TEST(SchedulingInvariance, SgdStepsMatchAcrossThreadCounts) {
  const ModelSpec spec = ModelSpec::parse_or_die("resnet20:16");
  const Tensor x = sample_batch(spec, 4);
  constexpr float kLossScale = 1024.0f;
  struct Out {
    std::vector<float> losses;
    std::vector<Tensor> weights;
  };
  auto train = [&](int threads) {
    std::unique_ptr<Sequential> model = spec.build();
    std::vector<Param*> params;
    model->collect_params(params);
    SgdMomentum optim(params, 0.05f);
    optim.zero_grad();
    const ComputeContext base = ComputeContext::with_backend(
        "sharded", QuantPolicy::uniform(paper_config()), /*seed=*/9, threads);
    SoftmaxCrossEntropy head;
    Out out;
    for (int step = 0; step < 3; ++step) {
      const ComputeContext ctx = base.fork(0xE0000 + step);
      const Tensor logits = model->forward(ctx, x, /*training=*/true);
      out.losses.push_back(head.forward_loss(logits, kLabels));
      model->backward(ctx.backward(), head.backward_loss(kLossScale));
      optim.step(kLossScale);
      optim.zero_grad();
    }
    for (Param* p : params) out.weights.push_back(p->value);
    return out;
  };
  const Out one = train(1);
  for (const int threads : {2, 4}) {
    const Out many = train(threads);
    ASSERT_EQ(one.losses.size(), many.losses.size());
    for (size_t s = 0; s < one.losses.size(); ++s)
      EXPECT_EQ(std::memcmp(&one.losses[s], &many.losses[s], sizeof(float)),
                0)
          << "threads=" << threads << " step " << s;
    ASSERT_EQ(one.weights.size(), many.weights.size());
    for (size_t i = 0; i < one.weights.size(); ++i)
      EXPECT_TRUE(bitwise_equal(one.weights[i], many.weights[i]))
          << "threads=" << threads << " param " << i;
  }
}

// One Sequential::backward per built-in backend leaves bitwise-equal
// gradients when the weight-gradient bucket runs on the caller (threads 1)
// and when it runs one problem per pool thread (threads 0).
TEST(SchedulingInvariance, BucketedBackwardMatchesOnEveryBackend) {
  struct Case {
    const char* backend;
    const char* model;
  };
  for (const Case& c : {Case{"fp32", "resnet20:16"},
                        Case{"reference", "resnet20:8"},
                        Case{"sharded", "resnet20:16"},
                        Case{"systolic", "resnet20:16"}}) {
    const ModelSpec spec = ModelSpec::parse_or_die(c.model);
    const Tensor x = sample_batch(spec, 4);
    auto grads = [&](int threads) {
      std::unique_ptr<Sequential> model = spec.build();
      const ComputeContext ctx = ComputeContext::with_backend(
          c.backend, QuantPolicy::uniform(paper_config()), /*seed=*/17,
          threads);
      SoftmaxCrossEntropy head;
      head.forward_loss(model->forward(ctx, x, /*training=*/true), kLabels);
      std::vector<Tensor> out;
      out.push_back(model->backward(ctx.backward(), head.backward_loss(1.0f)));
      std::vector<Param*> params;
      model->collect_params(params);
      for (Param* p : params) out.push_back(p->grad);
      return out;
    };
    const std::vector<Tensor> caller = grads(1);
    const std::vector<Tensor> pooled = grads(0);
    ASSERT_EQ(caller.size(), pooled.size()) << c.backend;
    for (size_t i = 0; i < caller.size(); ++i)
      EXPECT_TRUE(bitwise_equal(caller[i], pooled[i]))
          << c.backend << " tensor " << i;
  }
}

}  // namespace
}  // namespace srmac
