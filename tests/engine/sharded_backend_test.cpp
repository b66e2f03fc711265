// The "sharded" backend, the one bit-accurate GEMM scheduler: bitwise
// parity with its own sequential per-item loop and with the "reference"
// golden path for single GEMMs, gemm_batch over heterogeneous problems,
// prequantized planes, and the layers' batched backward — invariant across
// --shards=1..4 and all adder kinds — plus the batch and shard-scheduling
// telemetry (batches, shard_migrations, planes_packed_per_shard) and the
// cross-layer weight-gradient bucketing Sequential::backward performs on
// batching backends. The default gemm_batch loop every other backend
// inherits is held to the same contract on "reference".
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "engine/compute_context.hpp"
#include "engine/registry.hpp"
#include "mac/gemm.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/thread_pool.hpp"

namespace srmac {
namespace {

/// Restores the process-wide shard override when a test returns.
struct ShardOverrideGuard {
  ~ShardOverrideGuard() { ThreadPool::set_default_shards(0); }
};

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

TEST(ShardedBackend, RegisteredWithBatchingProperties) {
  const auto names = BackendRegistry::instance().names();
  EXPECT_NE(std::find(names.begin(), names.end(), "sharded"), names.end());
  const MatmulBackend* b = BackendRegistry::instance().get("sharded");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->name(), "sharded");
  EXPECT_TRUE(b->bit_accurate());
  EXPECT_TRUE(b->supports_prequantized());
  EXPECT_TRUE(b->supports_batch());
  EXPECT_NE(dynamic_cast<const ShardStatsSource*>(b), nullptr)
      << "sharded exposes shard-scheduling counters";
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

// The acceptance anchor: a heterogeneous batch — different shapes, all
// three adder kinds, distinct seeds, two items sharing one B plane — is
// bit-identical to the sequential per-item dispatch at every shard count
// 1..4 (well past this host's shard topology, so routing, stealing, and
// the per-shard caches all get exercised). The inherited default loop
// (on "reference") matches its own per-item loop and the same bits.
TEST(ShardedBackend, GemmBatchMatchesSequentialAcrossShardCounts) {
  ShardOverrideGuard guard;
  const auto A1 = random_matrix(12, 40, 11), B1 = random_matrix(40, 17, 12);
  const auto A2 = random_matrix(9, 40, 13);  // shares B1 (dedup)
  const auto A3 = random_matrix(21, 33, 14), B3 = random_matrix(33, 48, 15);
  const auto A4 = random_matrix(6, 33, 16);  // shares B3

  MacConfig lazy = paper_config();
  lazy.adder = AdderKind::kLazySR;
  MacConfig rn = paper_config();
  rn.adder = AdderKind::kRoundNearest;

  std::vector<GemmBatchItem> items(4);
  items[0].cfg = paper_config();
  items[0].args = {12, 17, 40, A1.data(), 40, B1.data(), 17,
                   nullptr, 17, false,   7,  1};
  items[1].cfg = lazy;
  items[1].args = {9, 17, 40, A2.data(), 40, B1.data(), 17,
                   nullptr, 17, false,  8,  1};
  items[2].cfg = rn;
  items[2].args = {21, 48, 33, A3.data(), 33, B3.data(), 48,
                   nullptr, 48, false,   9,  1};
  items[3].cfg = paper_config();
  items[3].args = {6, 48, 33, A4.data(), 33, B3.data(), 48,
                   nullptr, 48, false,  10,  1};

  // Per-item gemm() loop, or one gemm_batch submission, on `backend`.
  auto run = [&](const MatmulBackend* backend, bool batched) {
    std::vector<std::vector<float>> c;
    std::vector<GemmBatchItem> batch = items;
    for (size_t i = 0; i < batch.size(); ++i) {
      c.emplace_back(static_cast<size_t>(items[i].args.M) * items[i].args.N,
                     -1.0f);
      batch[i].args.C = c[i].data();
      if (!batched) backend->gemm(batch[i].cfg, batch[i].args);
    }
    if (batched) backend->gemm_batch(batch.data(), batch.size());
    return c;
  };
  const MatmulBackend* sharded = BackendRegistry::instance().get("sharded");
  const auto c_seq = run(sharded, /*batched=*/false);
  for (int shards = 1; shards <= 4; ++shards) {
    ThreadPool::set_default_shards(shards);
    const auto c_batch = run(sharded, /*batched=*/true);
    for (size_t i = 0; i < items.size(); ++i)
      EXPECT_EQ(c_seq[i], c_batch[i]) << "shards=" << shards << " item " << i;
  }
  const MatmulBackend* ref = BackendRegistry::instance().get("reference");
  const auto r_seq = run(ref, /*batched=*/false);
  const auto r_batch = run(ref, /*batched=*/true);
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(r_seq[i], r_batch[i]) << "reference item " << i;
    EXPECT_EQ(c_seq[i], r_seq[i]) << "sharded vs reference item " << i;
  }
}

// Prequantized planes (the cached-weight-plane pattern), two items sharing
// one bits plane (the pack dedup): identical to the float submission on
// the sharded backend and through the default loop's decode path.
TEST(ShardedBackend, PrequantizedPlanesMatchFloatSubmission) {
  const int K = 28, N = 15;
  const auto A1 = random_matrix(10, K, 61), A2 = random_matrix(7, K, 62);
  const auto B = random_matrix(K, N, 63);
  const MacConfig cfg = paper_config().normalized();
  std::vector<uint32_t> bq(static_cast<size_t>(K) * N);
  gemm_quantize(cfg.mul_fmt, K, N, B.data(), N, bq.data());

  std::vector<GemmBatchItem> items(2);
  items[0].cfg = cfg;
  items[0].args = {10, N, K, A1.data(), K, B.data(), N, nullptr, N,
                   false,  31, 1};
  items[1].cfg = cfg;
  items[1].args = {7, N, K, A2.data(), K, B.data(), N, nullptr, N,
                   false, 32, 1};

  for (const char* name : {"sharded", "reference"}) {
    const MatmulBackend* backend = BackendRegistry::instance().get(name);
    std::vector<std::vector<float>> c_float, c_bits;
    for (const auto& it : items) {
      c_float.emplace_back(static_cast<size_t>(it.args.M) * N, -1.0f);
      c_bits.emplace_back(static_cast<size_t>(it.args.M) * N, -2.0f);
    }
    std::vector<GemmBatchItem> floats = items, bits = items;
    for (size_t i = 0; i < items.size(); ++i) {
      floats[i].args.C = c_float[i].data();
      bits[i].args.C = c_bits[i].data();
      bits[i].args.B = nullptr;
      bits[i].Bq = bq.data();
    }
    backend->gemm_batch(floats.data(), floats.size());
    backend->gemm_batch(bits.data(), bits.size());
    for (size_t i = 0; i < items.size(); ++i)
      EXPECT_EQ(c_float[i], c_bits[i]) << name << " item " << i;
  }
}

// A plane fanned out across the whole batch is packed once per shard that
// executes one of its problems — not once per problem.
TEST(ShardedBackend, SharedPlanePacksOncePerShard) {
  ShardOverrideGuard guard;
  ThreadPool::set_default_shards(2);
  // A fresh instance so the cumulative counters start at zero.
  auto backend = BackendRegistry::instance().create("sharded");
  const auto* stats_src = dynamic_cast<const ShardStatsSource*>(backend.get());
  ASSERT_NE(stats_src, nullptr);

  const int M = 5, N = 9, K = 21, batch = 8;
  const auto B = random_matrix(K, N, 71);
  std::vector<std::vector<float>> As, Cs;
  std::vector<GemmBatchItem> items(batch);
  for (int i = 0; i < batch; ++i) {
    As.push_back(random_matrix(M, K, 80 + i));
    Cs.emplace_back(static_cast<size_t>(M) * N);
    items[i].cfg = paper_config();
    items[i].args = {M, N, K, As[i].data(), K, B.data(), N,
                     Cs[i].data(), N, false, static_cast<uint64_t>(90 + i), 1};
  }
  backend->gemm_batch(items.data(), items.size());

  const ShardStatsSource::Stats stats = stats_src->shard_stats();
  ASSERT_EQ(stats.planes_packed.size(), 2u);
  EXPECT_EQ(stats.planes_packed[0], 1u) << "one pack per shard, not per item";
  EXPECT_EQ(stats.planes_packed[1], 1u);
}

// Conv2d / Linear batched backward through the sharded backend reproduces
// the reference gradients bit for bit at every shard count.
TEST(ShardedBackend, LayerBackwardMatchesReferenceAcrossShardCounts) {
  ShardOverrideGuard guard;
  const QuantPolicy policy = QuantPolicy::uniform(paper_config());
  struct Run {
    std::vector<Tensor> grads;
    Tensor gx;
  };
  auto run = [&](const char* name, bool conv) {
    Sequential model;
    if (conv)
      model.add(std::make_unique<Conv2d>(3, 4, 3));
    else
      model.add(std::make_unique<Linear>(10, 6));
    he_init(model, 0xBEEF);
    const ComputeContext ctx =
        ComputeContext::with_backend(name, policy, /*seed=*/21);
    const Tensor x = conv ? Tensor({2, 3, 8, 8}, 0.25f) : Tensor({4, 10}, 0.5f);
    Tensor out = model.forward(ctx, x, /*training=*/true);
    Tensor gout(out.shape(), 1.0f);
    Run r;
    r.gx = model.backward(ctx.backward(), gout);
    std::vector<Param*> params;
    model.collect_params(params);
    for (Param* p : params) r.grads.push_back(p->grad);
    return r;
  };
  for (const bool conv : {false, true}) {
    const Run ref = run("reference", conv);
    for (int shards = 1; shards <= 4; ++shards) {
      ThreadPool::set_default_shards(shards);
      const Run sharded = run("sharded", conv);
      ASSERT_EQ(ref.grads.size(), sharded.grads.size());
      for (size_t i = 0; i < ref.grads.size(); ++i)
        for (int64_t j = 0; j < ref.grads[i].numel(); ++j)
          ASSERT_EQ(ref.grads[i][j], sharded.grads[i][j])
              << (conv ? "conv" : "linear") << " shards=" << shards
              << " param " << i << " @" << j;
      for (int64_t j = 0; j < ref.gx.numel(); ++j)
        ASSERT_EQ(ref.gx[j], sharded.gx[j])
            << (conv ? "conv" : "linear") << " shards=" << shards << " gx @"
            << j;
    }
  }
}

// A multi-layer model: Sequential::backward buckets the per-layer dW GEMMs
// into cross-layer gemm_batch submissions on batching backends — the
// gradients must still match the reference (per-layer, sequential)
// dispatch bit for bit.
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
    for (int64_t j = 0; j < ref[i].numel(); ++j)
      ASSERT_EQ(ref[i][j], sharded[i][j]) << "tensor " << i << " @" << j;
}

// MatmulBatch records one batch + per-problem counters into the sink.
TEST(ShardedBackend, TelemetryCountsBatches) {
  Telemetry sink;
  ComputeContext ctx = ComputeContext::with_backend(
      "sharded", QuantPolicy::uniform(paper_config()), /*seed=*/3);
  ctx.telemetry = &sink;
  const auto A = random_matrix(6, 12, 31), B = random_matrix(12, 8, 32);
  std::vector<float> c1(48), c2(48);
  {
    MatmulBatch batch(ctx);
    batch.add(ctx, 6, 8, 12, A.data(), B.data(), c1.data());
    batch.add(ctx.fork(1), 6, 8, 12, A.data(), B.data(), c2.data());
    EXPECT_EQ(batch.size(), 2u);
    batch.flush();
    EXPECT_EQ(batch.size(), 0u);
  }
  const TelemetrySnapshot snap = sink.snapshot();
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.batch_problems, 2u);
  EXPECT_EQ(snap.gemms, 2u);
  EXPECT_EQ(snap.macs, 2ull * 6 * 8 * 12);
  ASSERT_EQ(snap.per_backend.count("sharded"), 1u);
  EXPECT_EQ(snap.per_backend.at("sharded").batches, 1u);
}

// MatmulBatch::flush on a shard-scheduling backend records the migration
// and per-shard pack counters into the telemetry sink.
TEST(ShardedBackend, TelemetryRecordsShardCounters) {
  ShardOverrideGuard guard;
  ThreadPool::set_default_shards(2);
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
    batch.flush();
  }
  const TelemetrySnapshot snap = sink.snapshot();
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.batch_problems, 3u);
  // One shared B plane, packed once by each of the two shards with routed
  // work. (The vector's length tracks the largest shard count the shared
  // backend instance has ever run with, so only the sum is asserted.)
  ASSERT_GE(snap.planes_packed_per_shard.size(), 2u);
  uint64_t packed = 0;
  for (const uint64_t p : snap.planes_packed_per_shard) packed += p;
  EXPECT_EQ(packed, 2u);
  // bytes_quantized agrees with the per-shard packs: three A operands
  // quantized per problem plus the shared B plane quantized once per
  // shard (one byte per E5M2 value) — not the once-per-batch estimate.
  EXPECT_EQ(snap.bytes_quantized, 3ull * 6 * 12 + packed * 12 * 8);
  ASSERT_EQ(snap.per_backend.count("sharded"), 1u);
}

}  // namespace
}  // namespace srmac
