// The backend registry and the four built-in MatmulBackend implementations:
// selection by name, the sharded/reference bit-parity acceptance check on
// the paper's configuration, pre-quantized-plane routing, telemetry
// recording, drop-in registration of out-of-tree backends — which
// MatmulBatch calls concurrently, one problem per pool thread — and how a
// backend's exception reaches the caller through the batch scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/compute_context.hpp"
#include "engine/emu_engine.hpp"
#include "engine/registry.hpp"
#include "mac/gemm.hpp"
#include "nn/layers.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/tensor_ops.hpp"

namespace srmac {
namespace {

/// The paper's reference MAC: E5M2 inputs, E6M5 accumulator, eager SR r=9.
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

TEST(BackendRegistry, BuiltinsAreRegistered) {
  // Exactly the four built-ins: one bit-accurate GEMM scheduler (sharded),
  // its golden reference, the float baseline, and the accelerator model.
  const auto names = BackendRegistry::instance().names();
  std::vector<std::string> builtins;
  for (const auto& name : names)
    if (name != "dup" && name != "counting")  // this file's test doubles
      builtins.push_back(name);
  EXPECT_EQ(builtins, (std::vector<std::string>{"fp32", "reference",
                                                "sharded", "systolic"}));
  for (const auto& name : names) {
    const MatmulBackend* b = BackendRegistry::instance().get(name);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->name(), name);
  }
}

TEST(BackendRegistry, UnknownNameThrowsWithInventory) {
  try {
    BackendRegistry::instance().get("no-such-backend");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-backend"), std::string::npos);
    EXPECT_NE(msg.find("sharded"), std::string::npos) << "lists known names";
  }
  // create() takes the same error path as get().
  EXPECT_THROW(BackendRegistry::instance().create("also-missing"),
               std::invalid_argument);
  EXPECT_FALSE(BackendRegistry::instance().contains("no-such-backend"));
  // EmuEngine surfaces the same failure through its builder (the CLI's
  // engine_or_die path).
  EXPECT_THROW(EmuEngine::Builder()
                   .scenario("eager_sr:e5m2/e6m5:r=9:subON")
                   .backend("no-such-backend")
                   .build(),
               std::invalid_argument);
}

// "fused" and "batched" are not backends: sharded replaces both
// bit-identical schedulers, so selecting either fails like any unknown key,
// and the message lists sharded.
TEST(BackendRegistry, DeletedSchedulersAreRejected) {
  for (const char* gone : {"fused", "batched"}) {
    try {
      BackendRegistry::instance().create(gone);
      FAIL() << gone << " must no longer be registered";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("sharded"), std::string::npos)
          << e.what();
    }
  }
}

// Registering an existing name replaces the factory for future create()
// calls, but shared instances get() already handed out stay alive and
// unchanged — the documented duplicate-registration contract.
TEST(BackendRegistry, DuplicateRegistrationReplacesFactoryKeepsInstances) {
  struct Dup final : MatmulBackend {
    bool accurate;
    explicit Dup(bool a) : accurate(a) {}
    std::string name() const override { return "dup"; }
    bool bit_accurate() const override { return accurate; }
    void gemm(const MacConfig&, const GemmArgs& a) const override {
      gemm_ref(a.M, a.N, a.K, a.A, a.lda, a.B, a.ldb, a.C, a.ldc,
               a.accumulate, a.threads);
    }
  };
  BackendRegistry::instance().register_backend(
      "dup", [] { return std::make_shared<Dup>(false); });
  const MatmulBackend* first = BackendRegistry::instance().get("dup");
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->bit_accurate());

  BackendRegistry::instance().register_backend(
      "dup", [] { return std::make_shared<Dup>(true); });
  EXPECT_EQ(BackendRegistry::instance().get("dup"), first)
      << "shared instance survives re-registration";
  EXPECT_FALSE(BackendRegistry::instance().get("dup")->bit_accurate());
  EXPECT_TRUE(BackendRegistry::instance().create("dup")->bit_accurate())
      << "fresh instances come from the replacement factory";
}

// A MatmulBatch on "reference" is bit-identical to per-GEMM dispatch and is
// recorded as one batch in telemetry.
TEST(BackendRegistry, BatchOnReferenceMatchesPerGemmDispatch) {
  const QuantPolicy policy = QuantPolicy::uniform(paper_config());
  Telemetry sink;
  ComputeContext ctx = ComputeContext::with_backend("reference", policy, 17);
  ctx.telemetry = &sink;
  const auto A = random_matrix(7, 11, 91), B = random_matrix(11, 9, 92);
  std::vector<float> c_batch1(63), c_batch2(63), c_seq1(63), c_seq2(63);
  {
    MatmulBatch batch(ctx);
    batch.add(ctx, 7, 9, 11, A.data(), B.data(), c_batch1.data());
    batch.add(ctx.fork(4), 7, 9, 11, A.data(), B.data(), c_batch2.data());
    batch.flush();
  }
  matmul(ctx, 7, 9, 11, A.data(), B.data(), c_seq1.data());
  matmul(ctx.fork(4), 7, 9, 11, A.data(), B.data(), c_seq2.data());
  EXPECT_EQ(c_batch1, c_seq1);
  EXPECT_EQ(c_batch2, c_seq2);
  const TelemetrySnapshot snap = sink.snapshot();
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.batch_problems, 2u);
}

TEST(BackendRegistry, CustomBackendDropsIn) {
  // A backend that counts dispatches and delegates to fp32 — the shape of
  // any out-of-tree backend. gemm() runs concurrently under MatmulBatch,
  // so the counter is atomic.
  struct CountingBackend final : MatmulBackend {
    mutable std::atomic<int> calls{0};
    std::string name() const override { return "counting"; }
    bool bit_accurate() const override { return false; }
    void gemm(const MacConfig&, const GemmArgs& a) const override {
      calls.fetch_add(1);
      gemm_ref(a.M, a.N, a.K, a.A, a.lda, a.B, a.ldb, a.C, a.ldc,
               a.accumulate, a.threads);
    }
  };
  auto backend = std::make_shared<CountingBackend>();
  BackendRegistry::instance().register_backend("counting",
                                               [backend] { return backend; });

  ComputeContext ctx =
      ComputeContext::with_backend("counting", QuantPolicy::uniform({}));
  const auto A = random_matrix(3, 4, 1), B = random_matrix(4, 5, 2);
  std::vector<float> C(15);
  matmul(ctx, 3, 5, 4, A.data(), B.data(), C.data());
  EXPECT_EQ(backend->calls.load(), 1);

  // Four problems through the batch scheduler: one gemm() call each, the
  // same bits as the direct dispatch.
  std::vector<std::vector<float>> Cs(4, std::vector<float>(15, -1.0f));
  MatmulBatch batch(ctx);
  for (auto& c : Cs) batch.add(ctx, 3, 5, 4, A.data(), B.data(), c.data());
  batch.flush();
  EXPECT_EQ(backend->calls.load(), 5);
  for (const auto& c : Cs) EXPECT_EQ(c, C);
}

/// A float backend whose gemm() throws on the problem with seed `bad_seed`,
/// or on every problem once `fail_all` is set; counts its calls.
struct ThrowingBackend final : MatmulBackend {
  uint64_t bad_seed = 0;
  std::atomic<bool> fail_all{false};
  mutable std::atomic<int> calls{0};
  std::string name() const override { return "throwing"; }
  bool bit_accurate() const override { return false; }
  void gemm(const MacConfig&, const GemmArgs& a) const override {
    calls.fetch_add(1);
    if (fail_all.load() || a.seed == bad_seed)
      throw std::runtime_error("backend failure");
    gemm_ref(a.M, a.N, a.K, a.A, a.lda, a.B, a.ldb, a.C, a.ldc,
             a.accumulate, a.threads);
  }
};

// A gemm() that throws inside the batch scheduler reaches the caller of
// flush(), and the batch is left empty — items and staged operands — so
// neither a later flush() nor the destructor runs the failed batch again.
TEST(BackendRegistry, ThrowingBackendLeavesTheBatchEmpty) {
  ThrowingBackend backend;
  ComputeContext ctx;
  ctx.backend = &backend;
  backend.bad_seed = ctx.fork(2).seed;
  const auto A = random_matrix(8, 6, 3), B_t = random_matrix(5, 6, 4);
  std::vector<std::vector<float>> Cs(4, std::vector<float>(40));
  int calls_after_flush = 0;
  {
    MatmulBatch batch(ctx);
    for (int i = 0; i < 4; ++i)
      batch.add_nt(ctx.fork(i), 8, 5, 6, A.data(), B_t.data(), Cs[i].data(),
                   /*accumulate=*/true);
    EXPECT_GT(batch.staged_floats(), 0u);
    EXPECT_THROW(batch.flush(), std::runtime_error);
    EXPECT_EQ(batch.size(), 0u);
    EXPECT_EQ(batch.staged_floats(), 0u);
    calls_after_flush = backend.calls.load();
    EXPECT_GE(calls_after_flush, 1);
    EXPECT_LE(calls_after_flush, 4);
    batch.flush();
  }
  EXPECT_EQ(backend.calls.load(), calls_after_flush)
      << "the failed batch must not run again";
}

// A backward that fails while the weight-gradient bucket still holds
// deferred GEMMs throws to its caller: the bucket drops them as the
// exception unwinds instead of running them (and throwing again) from its
// destructor.
TEST(BackendRegistry, ThrowingBackendFailsBackwardCleanly) {
  ThrowingBackend backend;
  ComputeContext ctx;
  ctx.backend = &backend;
  Sequential model;
  model.add(std::make_unique<Linear>(6, 5));
  model.add(std::make_unique<Linear>(5, 3));
  const Tensor out = model.forward(ctx, Tensor({2, 6}, 0.5f), true);
  backend.fail_all = true;
  EXPECT_THROW(model.backward(ctx.backward(), Tensor(out.shape(), 1.0f)),
               std::runtime_error);
}

// Acceptance: sharded == reference, bit for bit, on the paper's E5M2/E6M5
// eager-SR configuration — through the registry dispatch, not the free
// functions.
TEST(BackendParity, ShardedMatchesReferenceOnPaperConfig) {
  const int M = 24, N = 21, K = 40;
  const auto A = random_matrix(M, K, 11), B = random_matrix(K, N, 12);
  const QuantPolicy policy = QuantPolicy::uniform(paper_config());

  std::vector<float> c_sharded(static_cast<size_t>(M) * N, -1.0f);
  std::vector<float> c_ref(static_cast<size_t>(M) * N, -2.0f);
  matmul(ComputeContext::with_backend("sharded", policy, /*seed=*/77), M, N,
         K, A.data(), B.data(), c_sharded.data());
  matmul(ComputeContext::with_backend("reference", policy, /*seed=*/77), M, N,
         K, A.data(), B.data(), c_ref.data());
  for (size_t i = 0; i < c_sharded.size(); ++i)
    ASSERT_EQ(c_sharded[i], c_ref[i]) << "element " << i;
}

TEST(BackendParity, Fp32BackendMatchesGemmRef) {
  const int M = 8, N = 7, K = 9;
  const auto A = random_matrix(M, K, 21), B = random_matrix(K, N, 22);
  std::vector<float> c_ctx(static_cast<size_t>(M) * N);
  std::vector<float> c_direct(static_cast<size_t>(M) * N);
  matmul(ComputeContext::fp32(), M, N, K, A.data(), B.data(), c_ctx.data());
  gemm_ref(M, N, K, A.data(), K, B.data(), N, c_direct.data(), N);
  EXPECT_EQ(c_ctx, c_direct);
}

TEST(BackendParity, SystolicRunsAndAccumulates) {
  const int M = 20, N = 19, K = 16;  // straddles the 16x16 tile boundary
  const auto A = random_matrix(M, K, 31), B = random_matrix(K, N, 32);
  const QuantPolicy policy = QuantPolicy::uniform(paper_config());
  const ComputeContext ctx = ComputeContext::with_backend("systolic", policy);

  std::vector<float> c1(static_cast<size_t>(M) * N);
  matmul(ctx, M, N, K, A.data(), B.data(), c1.data());
  for (const float v : c1) ASSERT_TRUE(std::isfinite(v));

  // accumulate=true seeds each PE accumulator from C (in acc_fmt):
  // accumulating onto zero is bit-identical to a fresh pass, and a second
  // accumulating pass lands near 2x (within SR noise).
  std::vector<float> c2(static_cast<size_t>(M) * N, 0.0f);
  matmul(ctx, M, N, K, A.data(), B.data(), c2.data(), /*accumulate=*/true);
  EXPECT_EQ(c1, c2);
  matmul(ctx, M, N, K, A.data(), B.data(), c2.data(), /*accumulate=*/true);
  double diff = 0, norm = 0;
  for (size_t i = 0; i < c1.size(); ++i) {
    diff += std::fabs(c2[i] - 2.0f * c1[i]);
    norm += std::fabs(2.0f * c1[i]);
  }
  EXPECT_LT(diff / norm, 0.2) << "second accumulating pass must double C";
}

// The default-seed satellite: a context built with defaults and a direct
// gemm_mac call with defaults must produce identical bits (both derive
// from kDefaultSeed).
TEST(BackendParity, ContextDefaultSeedMatchesDirectCall) {
  const int M = 6, N = 5, K = 12;
  const auto A = random_matrix(M, K, 41), B = random_matrix(K, N, 42);
  std::vector<float> c_ctx(static_cast<size_t>(M) * N);
  std::vector<float> c_direct(static_cast<size_t>(M) * N);
  matmul(ComputeContext::emulated(paper_config()), M, N, K, A.data(), B.data(),
         c_ctx.data());
  gemm_mac(paper_config(), M, N, K, A.data(), K, B.data(), N, c_direct.data(),
           N);
  EXPECT_EQ(c_ctx, c_direct);
}

TEST(Telemetry, CountersAccumulateAndReset) {
  EmuEngine engine = EmuEngine::Builder()
                         .scenario("eager_sr:e5m2/e6m5:r=9:subON")
                         .seed(5)
                         .build();
  const int M = 10, N = 8, K = 6;
  const auto A = random_matrix(M, K, 51), B = random_matrix(K, N, 52);
  std::vector<float> C(static_cast<size_t>(M) * N);
  matmul(engine.context(), M, N, K, A.data(), B.data(), C.data());
  matmul(engine.context(), M, N, K, A.data(), B.data(), C.data());

  const TelemetrySnapshot snap = engine.telemetry().snapshot();
  EXPECT_EQ(snap.gemms, 2u);
  EXPECT_EQ(snap.macs, 2ull * M * N * K);
  // Both operands quantized per call, one byte per FP8 value.
  EXPECT_EQ(snap.bytes_quantized, 2ull * (M * K + K * N));
  ASSERT_EQ(snap.per_backend.count("sharded"), 1u);
  EXPECT_EQ(snap.per_backend.at("sharded").gemms, 2u);
  EXPECT_GE(snap.seconds, 0.0);
  EXPECT_GT(snap.projected_mac_energy_uj(paper_config()), 0.0);

  engine.telemetry().reset();
  EXPECT_EQ(engine.telemetry().snapshot().gemms, 0u);
}

}  // namespace
}  // namespace srmac
