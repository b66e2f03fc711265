// Serving determinism: a served request's output is bitwise identical to
// the same sample run offline through the "reference" backend (the seed
// MacUnit golden path) — for every adder kind, and for micro-batch sizes
// 1, 4, and 16. This is the load-bearing contract of the serving stack:
// batching changes scheduling (one wide kernel per compiled GEMM op), never
// bits, because every sample keeps its own seed chain.
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
constexpr int kClasses = 5;

// Conv + composite block + head: exercises the compiled conv op with its
// fused ReLU, the BasicBlock lowering (including the projection shortcut),
// GAP, and the Linear op.
std::unique_ptr<Sequential> make_model() {
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<Conv2d>(1, 4, 3));
  net->add(std::make_unique<ReLU>());
  net->add(std::make_unique<BasicBlock>(4, 8, 2));
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Linear>(8, kClasses));
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

void check_scenario(const std::string& scenario,
                    const std::string& serve_backend) {
  // Offline references through "reference", with the default base seed
  // the server will also use.
  auto offline_model = make_model();
  const EmuEngine offline =
      EmuEngine::Builder().scenario(scenario).backend("reference").build();
  std::vector<Tensor> refs;
  for (int i = 0; i < 16; ++i)
    refs.push_back(
        offline_model->forward(offline.context(), make_sample(i), false));

  for (int batch : {1, 4, 16}) {
    ServeConfig cfg;
    cfg.max_batch = batch;
    cfg.queue_capacity = 32;
    cfg.input_shape = {1, 8, 8};
    cfg.start_thread = false;  // drive micro-batches deterministically
    ManualServeClock clock;
    EmuServer server(
        make_model(),
        EmuEngine::Builder().scenario(scenario).backend(serve_backend).build(),
        cfg, &clock);

    std::vector<std::future<InferResult>> futs(16);
    int submitted = 0;
    while (submitted < 16) {
      // Fill exactly one micro-batch, then run it: the coalesced size is
      // `batch` by construction, not by timing.
      const int before = submitted;
      const int upto = std::min(16, submitted + batch);
      for (; submitted < upto; ++submitted)
        ASSERT_TRUE(
            server.try_submit(make_sample(submitted), &futs[submitted]));
      ASSERT_EQ(server.run_once(), upto - before) << "scenario=" << scenario;
      ASSERT_EQ(server.run_once(), 0);  // nothing left pending
    }
    for (int i = 0; i < 16; ++i) {
      InferResult r = futs[i].get();
      EXPECT_EQ(r.batch_size, batch);
      expect_bitwise_equal(r.output, refs[i],
                           "scenario=" + scenario + " backend=" +
                               serve_backend + " batch=" +
                               std::to_string(batch) + " sample=" +
                               std::to_string(i));
    }
  }
}

}  // namespace

TEST(ServeDeterminism, EagerSrMatchesOfflineReference) {
  check_scenario("eager_sr:e5m2/e6m5:r=9:subON", "sharded");
}

TEST(ServeDeterminism, LazySrMatchesOfflineReference) {
  check_scenario("lazy_sr:e5m2/e6m5:r=9:subON", "sharded");
}

TEST(ServeDeterminism, RnMatchesOfflineReference) {
  check_scenario("rn:e5m2/e6m5:subON", "sharded");
}

TEST(ServeDeterminism, Resnet20ServedSampleMatchesOffline) {
  // End-to-end on the real ResNet-20 graph (width-reduced for test time):
  // stem, all three stages with projection blocks, GAP, FC.
  const std::string scenario = "eager_sr:e5m2/e6m5:r=9:subON";
  auto offline_model = make_resnet20(10, 0.25f);
  he_init(*offline_model, kInitSeed);
  const EmuEngine offline = EmuEngine::Builder().scenario(scenario).build();
  Tensor x({1, 3, 16, 16});
  Xoshiro256 rng(42);
  for (int64_t j = 0; j < x.numel(); ++j)
    x[j] = static_cast<float>(rng.normal());
  const Tensor ref = offline_model->forward(offline.context(), x, false);

  auto served_model = make_resnet20(10, 0.25f);
  he_init(*served_model, kInitSeed);
  ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.start_thread = false;
  cfg.input_shape = {3, 16, 16};
  EmuServer server(
      std::move(served_model),
      EmuEngine::Builder().scenario(scenario).backend("sharded").build(),
      cfg);
  std::vector<std::future<InferResult>> futs(4);
  for (int i = 0; i < 4; ++i) {
    // try_submit moves the sample on success (so fleet retries need no deep
    // copy); resubmitting the same tensor therefore takes an explicit copy.
    Tensor xi = x;
    ASSERT_TRUE(server.try_submit(xi, &futs[i]));
  }
  ASSERT_EQ(server.run_once(), 4);
  for (int i = 0; i < 4; ++i)
    expect_bitwise_equal(futs[i].get().output, ref, "resnet20 coalesced");
}
