// Continuous batching (docs/SERVING.md): the executor advances every
// in-flight request one compiled stage per wave; a finishing request
// releases its slot at the wave boundary and the batcher back-fills it
// mid-flight — so a short request never stalls behind a long one's full
// drain. Driven deterministically with start_thread=false + run_once() (one
// call = one back-fill + one wave). The bitwise contract is unchanged:
// stage i always replays Sequential's fork(i+1) salt for its child
// regardless of which wave reaches it.
#include <gtest/gtest.h>

#include <chrono>
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

constexpr const char* kScenario = "eager_sr:e5m2/e6m5:r=9:subON";
constexpr uint64_t kInitSeed = 0xC0FFEE;
// Stages of make_model()'s compiled program, one wave each: the Conv2d
// and its ReLU fuse into one stage, so five children make four stages.
constexpr int kDepth = 4;

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

EmuEngine make_engine() {
  return EmuEngine::Builder().scenario(kScenario).backend("sharded").build();
}

Tensor make_sample(int i) {
  Tensor x({1, 1, 8, 8});
  Xoshiro256 rng(1000 + static_cast<uint64_t>(i));
  for (int64_t j = 0; j < x.numel(); ++j)
    x[j] = static_cast<float>(rng.normal());
  return x;
}

Tensor offline_ref(int i) {
  auto model = make_model();
  const EmuEngine offline = EmuEngine::Builder().scenario(kScenario).build();
  return model->forward(offline.context(), make_sample(i), false);
}

bool ready(const std::future<InferResult>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

ServeConfig continuous_cfg(int max_batch) {
  ServeConfig cfg;
  cfg.max_batch = max_batch;
  cfg.start_thread = false;
  cfg.continuous = true;
  cfg.input_shape = {1, 8, 8};
  return cfg;
}

}  // namespace

TEST(ContinuousBatching, OneWavePerStageAndBitwiseOutputs) {
  EmuServer server(make_model(), make_engine(), continuous_cfg(4));
  ASSERT_NE(server.compiled(), nullptr);
  ASSERT_EQ(server.stages(), static_cast<size_t>(kDepth));
  std::vector<std::future<InferResult>> futs(4);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(server.try_submit(make_sample(i), &futs[i]));
  EXPECT_EQ(server.pending(), 4u);
  EXPECT_EQ(server.in_flight(), 0u);

  // kDepth waves: the first back-fills all four into slots; none resolves
  // until the last stage has run.
  for (int wave = 0; wave < kDepth - 1; ++wave) {
    EXPECT_EQ(server.run_once(), 0) << "wave " << wave;
    EXPECT_EQ(server.in_flight(), 4u);
    for (int i = 0; i < 4; ++i) EXPECT_FALSE(ready(futs[i]));
  }
  EXPECT_EQ(server.run_once(), 4);  // final wave resolves the cohort
  EXPECT_EQ(server.in_flight(), 0u);
  EXPECT_EQ(server.run_once(), 0);  // idle

  for (int i = 0; i < 4; ++i) {
    InferResult r = futs[i].get();
    EXPECT_EQ(r.batch_size, 4);  // in flight when it completed
    const Tensor ref = offline_ref(i);
    ASSERT_EQ(r.output.shape(), ref.shape());
    EXPECT_EQ(0, std::memcmp(r.output.data(), ref.data(),
                             static_cast<size_t>(ref.numel()) * sizeof(float)))
        << "sample " << i;
  }
}

TEST(ContinuousBatching, BackfillJoinsMidFlightWithoutStallingEither) {
  // r0 starts alone; two waves in, r1 arrives and the next wave back-fills
  // it while r0 is mid-program. r0 resolves kDepth waves after ITS start,
  // r1 kDepth waves after ITS OWN admission — the long-running cohort never
  // gated the newcomer's start, and the newcomer never delayed r0.
  EmuServer server(make_model(), make_engine(), continuous_cfg(4));
  ASSERT_NE(server.compiled(), nullptr);
  std::future<InferResult> f0, f1;
  ASSERT_TRUE(server.try_submit(make_sample(0), &f0));
  EXPECT_EQ(server.run_once(), 0);  // wave 1: r0 at stage 1
  EXPECT_EQ(server.run_once(), 0);  // wave 2: r0 at stage 2
  EXPECT_EQ(server.in_flight(), 1u);

  ASSERT_TRUE(server.try_submit(make_sample(1), &f1));
  EXPECT_EQ(server.run_once(), 0);  // wave 3: back-fills r1; both advance
  EXPECT_EQ(server.in_flight(), 2u);
  EXPECT_EQ(server.run_once(), 1);          // wave 4: r0 done (its 4th wave)
  EXPECT_TRUE(ready(f0));
  EXPECT_FALSE(ready(f1));                  // r1 has 2 stages left
  EXPECT_EQ(server.in_flight(), 1u);
  EXPECT_EQ(server.run_once(), 0);          // r1's wave 3
  EXPECT_EQ(server.run_once(), 1);          // r1's wave 4
  EXPECT_TRUE(ready(f1));

  // Interleaved execution stayed bitwise (same-cursor groups run the same
  // compiled stage, which replays its child's fork chain).
  for (int i = 0; i < 2; ++i) {
    const Tensor ref = offline_ref(i);
    const Tensor got = (i == 0 ? f0 : f1).get().output;
    EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                             static_cast<size_t>(ref.numel()) * sizeof(float)))
        << "sample " << i;
  }
}

TEST(ContinuousBatching, SlotReleaseLetsQueueDrainPastCapacity) {
  // max_batch=2 slots, 4 requests: the third and fourth enter only as
  // earlier ones release their slots — and everything resolves.
  EmuServer server(make_model(), make_engine(), continuous_cfg(2));
  std::vector<std::future<InferResult>> futs(4);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(server.try_submit(make_sample(i), &futs[i]));
  int resolved = 0;
  int waves = 0;
  while (resolved < 4 && waves < 64) {
    resolved += server.run_once();
    ++waves;
  }
  EXPECT_EQ(resolved, 4);
  // Cohorts of 2 run back to back: 2 full passes of kDepth waves.
  EXPECT_EQ(waves, 2 * kDepth);
  for (int i = 0; i < 4; ++i) {
    const Tensor ref = offline_ref(i);
    const Tensor got = futs[i].get().output;
    EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                             static_cast<size_t>(ref.numel()) * sizeof(float)))
        << "sample " << i;
  }
}

TEST(ContinuousBatching, StopDrainsInFlightAndQueuedRequests) {
  EmuServer server(make_model(), make_engine(), continuous_cfg(2));
  std::vector<std::future<InferResult>> futs(4);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(server.try_submit(make_sample(i), &futs[i]));
  EXPECT_EQ(server.run_once(), 0);  // 2 now mid-flight, 2 still queued
  server.stop();                    // inline wave drain
  EXPECT_EQ(server.in_flight(), 0u);
  for (int i = 0; i < 4; ++i) {
    const Tensor ref = offline_ref(i);
    const Tensor got = futs[i].get().output;
    EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                             static_cast<size_t>(ref.numel()) * sizeof(float)))
        << "sample " << i;
  }
}

TEST(ContinuousBatching, ThreadedSessionResolvesEverythingBitwise) {
  // The same engine under the real batcher thread (the TSan leg covers
  // this file too): concurrent submitters, wave loop, drain on stop.
  ServeConfig cfg = continuous_cfg(4);
  cfg.start_thread = true;
  EmuServer server(make_model(), make_engine(), cfg);
  std::vector<std::future<InferResult>> futs(16);
  for (int i = 0; i < 16; ++i) futs[i] = server.submit(make_sample(i));
  for (int i = 0; i < 16; ++i) {
    const Tensor ref = offline_ref(i);
    const Tensor got = futs[i].get().output;
    EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                             static_cast<size_t>(ref.numel()) * sizeof(float)))
        << "sample " << i;
  }
}
