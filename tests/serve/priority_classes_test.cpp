// Priority/SLO classes at the admission queue (docs/SERVING.md "Grouped
// execution & priority classes"): deterministic weighted-credit drain under
// contention, per-class deadline defaults, clamped class indices, and the
// cluster-level degradation order — the lowest class sheds first with a
// typed kOverloaded while gold traffic keeps flowing.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "nn/init.hpp"
#include "nn/mlp.hpp"
#include "rng/xoshiro.hpp"
#include "serve/cluster_controller.hpp"
#include "serve/emu_server.hpp"

using namespace srmac;

namespace {

constexpr const char* kScenario = "eager_sr:e5m2/e6m5:r=9:subON";

std::unique_ptr<Sequential> make_model() {
  auto net = make_mlp(16, {16, 16}, 4);
  he_init(*net, 0xBE7C);
  return net;
}

EmuEngine make_engine() {
  return EmuEngine::Builder().scenario(kScenario).backend("sharded").build();
}

Tensor make_sample(int i) {
  Tensor x({1, 16});
  Xoshiro256 rng(77 + static_cast<uint64_t>(i));
  for (int64_t j = 0; j < x.numel(); ++j)
    x[j] = static_cast<float>(rng.normal());
  return x;
}

bool ready(const std::future<InferResult>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

std::vector<PriorityClass> gold_silver_bronze() {
  PriorityClass gold{"gold", /*weight=*/2, 0, 0, 1.0};
  PriorityClass silver{"silver", /*weight=*/1, 0, 0, 1.0};
  PriorityClass bronze{"bronze", /*weight=*/1, 0, 0, 0.5};
  return {gold, silver, bronze};
}

SubmitMeta with_priority(int p) {
  SubmitMeta meta;
  meta.priority = p;
  return meta;
}

}  // namespace

TEST(PriorityClasses, WeightedDrainIsDeterministicUnderContention) {
  // gold weight 2, bronze weight 1: with both classes backed up, each
  // 3-request micro-batch drains gold,gold,bronze — a pure function of
  // push order and weights, no clocks involved.
  ServeConfig cfg;
  cfg.input_shape = {16};
  cfg.max_batch = 3;
  cfg.start_thread = false;
  cfg.classes = {PriorityClass{"gold", 2, 0, 0, 1.0},
                 PriorityClass{"bronze", 1, 0, 0, 1.0}};
  EmuServer server(make_model(), make_engine(), cfg);

  // Bronze submitted FIRST — priority must beat arrival order.
  std::vector<std::future<InferResult>> bronze(4), gold(4);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(
        server.try_submit(make_sample(100 + i), &bronze[i], with_priority(1)));
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(
        server.try_submit(make_sample(i), &gold[i], with_priority(0)));

  // Batch 1: g0 g1 b0.
  ASSERT_EQ(server.run_once(), 3);
  EXPECT_TRUE(ready(gold[0]) && ready(gold[1]) && ready(bronze[0]));
  EXPECT_FALSE(ready(gold[2]) || ready(bronze[1]));
  // Batch 2: g2 g3 b1.
  ASSERT_EQ(server.run_once(), 3);
  EXPECT_TRUE(ready(gold[2]) && ready(gold[3]) && ready(bronze[1]));
  EXPECT_FALSE(ready(bronze[2]));
  // Batch 3: gold empty — bronze drains FIFO.
  ASSERT_EQ(server.run_once(), 2);
  EXPECT_TRUE(ready(bronze[2]) && ready(bronze[3]));
  for (auto& f : gold) f.get();
  for (auto& f : bronze) f.get();
}

TEST(PriorityClasses, SingleClassDefaultIsPlainFifo) {
  // No classes configured = the pre-class behavior: strict arrival order,
  // and any priority value lands in the one implicit class.
  ServeConfig cfg;
  cfg.input_shape = {16};
  cfg.max_batch = 2;
  cfg.start_thread = false;
  EmuServer server(make_model(), make_engine(), cfg);
  std::vector<std::future<InferResult>> futs(4);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(
        server.try_submit(make_sample(i), &futs[i], with_priority(3 - i)));
  ASSERT_EQ(server.run_once(), 2);
  EXPECT_TRUE(ready(futs[0]) && ready(futs[1]));  // arrival order held
  EXPECT_FALSE(ready(futs[2]));
  ASSERT_EQ(server.run_once(), 2);
  for (auto& f : futs) f.get();
}

TEST(PriorityClasses, OutOfRangePriorityClampsToLowestClass) {
  ServeConfig cfg;
  cfg.input_shape = {16};
  cfg.max_batch = 1;
  cfg.start_thread = false;
  cfg.classes = gold_silver_bronze();
  EmuServer server(make_model(), make_engine(), cfg);
  std::future<InferResult> hi, lo;
  // priority 99 -> bronze (last class); priority -7 -> gold (class 0).
  ASSERT_TRUE(server.try_submit(make_sample(0), &lo, with_priority(99)));
  ASSERT_TRUE(server.try_submit(make_sample(1), &hi, with_priority(-7)));
  ASSERT_EQ(server.run_once(), 1);
  EXPECT_TRUE(ready(hi));  // clamped-to-gold ran first
  EXPECT_FALSE(ready(lo));
  ASSERT_EQ(server.run_once(), 1);
  hi.get();
  lo.get();
}

TEST(PriorityClasses, PerClassDeadlineDefaultApplies) {
  // gold: tight 100us class deadline; bronze: none (session default 0 =
  // no deadline). Advance the manual clock past the gold budget before the
  // batch forms: gold expires with kDeadline, bronze still completes.
  ServeConfig cfg;
  cfg.input_shape = {16};
  cfg.max_batch = 4;
  cfg.start_thread = false;
  cfg.classes = {PriorityClass{"gold", 2, 0, /*deadline_us=*/100, 1.0},
                 PriorityClass{"bronze", 1, 0, /*deadline_us=*/0, 1.0}};
  ManualServeClock clock;
  EmuServer server(make_model(), make_engine(), cfg, &clock);
  std::future<InferResult> g, b;
  ASSERT_TRUE(server.try_submit(make_sample(0), &g, with_priority(0)));
  ASSERT_TRUE(server.try_submit(make_sample(1), &b, with_priority(1)));
  clock.advance(500);
  EXPECT_EQ(server.run_once(), 2);
  try {
    g.get();
    FAIL() << "expired gold request must not resolve";
  } catch (const ServeException& e) {
    EXPECT_EQ(e.code(), ServeError::kDeadline);
  }
  b.get();  // deadline-free bronze rode the same batch and completed
}

TEST(PriorityClasses, ClusterShedsLowestClassFirstWithTypedOverload) {
  // Fleet shed limit 4; bronze sheds at 0.5 * 4 = 2 in-flight, gold at the
  // full limit. Fill the fleet to 2 in flight: bronze is refused with a
  // typed kOverloaded while gold is still admitted.
  ClusterConfig cfg;
  cfg.serve.input_shape = {16};
  cfg.replicas = 1;
  cfg.serve.max_batch = 8;
  cfg.serve.queue_capacity = 16;
  cfg.serve.start_thread = false;
  cfg.serve.classes = gold_silver_bronze();
  cfg.shed_inflight = 4;
  cfg.max_retries = 0;
  ClusterController cluster([] { return make_model(); },
                            [] { return make_engine(); }, cfg);

  std::vector<std::future<InferResult>> admitted;
  admitted.push_back(cluster.submit(make_sample(0), /*priority=*/0));
  admitted.push_back(cluster.submit(make_sample(1), /*priority=*/2));
  // 2 in flight: bronze (shed_at 0.5) is over ITS limit...
  std::future<InferResult> shed = cluster.submit(make_sample(2), 2);
  try {
    shed.get();
    FAIL() << "bronze past its shed threshold must not be admitted";
  } catch (const ServeException& e) {
    EXPECT_EQ(e.code(), ServeError::kOverloaded);
  }
  // ... while gold still flows up to the fleet-wide limit.
  admitted.push_back(cluster.submit(make_sample(3), 0));
  admitted.push_back(cluster.submit(make_sample(4), 0));
  // 4 in flight: now even gold sheds.
  std::future<InferResult> gold_shed = cluster.submit(make_sample(5), 0);
  try {
    gold_shed.get();
    FAIL() << "fleet-wide limit must shed every class";
  } catch (const ServeException& e) {
    EXPECT_EQ(e.code(), ServeError::kOverloaded);
  }
  EXPECT_EQ(cluster.telemetry_snapshot().serve_sheds, 2u);

  EXPECT_EQ(cluster.run_once(), 4);
  for (auto& f : admitted) f.get();  // all admitted requests resolve
}

TEST(PriorityClasses, ContinuousAndClassesCompose) {
  // Weighted admission feeds the wave engine: under contention the gold
  // cohort enters the slots first even though bronze arrived earlier.
  ServeConfig cfg;
  cfg.input_shape = {16};
  cfg.max_batch = 2;
  cfg.start_thread = false;
  cfg.continuous = true;
  cfg.classes = {PriorityClass{"gold", 2, 0, 0, 1.0},
                 PriorityClass{"bronze", 1, 0, 0, 1.0}};
  EmuServer server(make_model(), make_engine(), cfg);
  std::future<InferResult> b0, g0, g1;
  ASSERT_TRUE(server.try_submit(make_sample(0), &b0, with_priority(1)));
  ASSERT_TRUE(server.try_submit(make_sample(1), &g0, with_priority(0)));
  ASSERT_TRUE(server.try_submit(make_sample(2), &g1, with_priority(0)));
  // First back-fill takes g0,g1 (weight 2 before bronze's turn).
  int waves = 0;
  while (!ready(g0) && waves < 16) {
    server.run_once();
    ++waves;
  }
  EXPECT_TRUE(ready(g0) && ready(g1));
  EXPECT_FALSE(ready(b0));
  while (!ready(b0) && waves < 32) {
    server.run_once();
    ++waves;
  }
  b0.get();
  g0.get();
  g1.get();
}
