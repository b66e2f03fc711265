// ClassQueue with one class: the admission queue under EmuServer and
// MicroBatcher, as a plain bounded FIFO. Semantics first (capacity,
// close-drain, failure modes), then an MPMC stress that the TSan CI leg
// runs under ThreadSanitizer. The weighted multi-class drain is covered by
// priority_classes_test.
#include "serve/class_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

using namespace srmac;

namespace {

/// A request whose trace_id stands in for the queued value.
ServeRequest req(uint64_t id) {
  ServeRequest r;
  r.trace_id = id;
  return r;
}

/// One default class: exact FIFO.
ClassQueue fifo(size_t capacity) { return ClassQueue(capacity, {}); }

uint64_t id_of(std::optional<ServeRequest> r) {
  EXPECT_TRUE(r.has_value());
  return r ? r->trace_id : ~0ull;
}

}  // namespace

TEST(ClassQueue, CapacityBoundsTryPush) {
  ClassQueue q = fifo(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_EQ(q.classes(), 1u);
  ServeRequest a = req(1), b = req(2), c = req(3);
  EXPECT_TRUE(q.try_push(a));
  EXPECT_TRUE(q.try_push(b));
  EXPECT_FALSE(q.try_push(c));  // full: rejected, not queued
  EXPECT_EQ(c.trace_id, 3u);    // and left with the caller
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(id_of(q.try_pop()), 1u);
  EXPECT_TRUE(q.try_push(c));  // space freed by the pop
  EXPECT_EQ(id_of(q.try_pop()), 2u);
  EXPECT_EQ(id_of(q.try_pop()), 3u);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(ClassQueue, ZeroCapacityClampsToOne) {
  ClassQueue q = fifo(0);
  EXPECT_EQ(q.capacity(), 1u);
  ServeRequest a = req(7), b = req(8);
  EXPECT_TRUE(q.try_push(a));
  EXPECT_FALSE(q.try_push(b));
}

TEST(ClassQueue, CloseDrainsButRefusesNewWork) {
  ClassQueue q = fifo(4);
  ServeRequest a = req(1), b = req(2);
  ASSERT_TRUE(q.try_push(a));
  ASSERT_TRUE(q.try_push(b));
  q.close();
  EXPECT_TRUE(q.closed());
  ServeRequest c = req(3);
  EXPECT_FALSE(q.try_push(c));
  EXPECT_FALSE(q.push(req(4)));
  // Drain semantics: accepted requests stay poppable after close.
  EXPECT_EQ(id_of(q.pop()), 1u);
  EXPECT_EQ(id_of(q.pop()), 2u);
  EXPECT_FALSE(q.pop().has_value());  // closed + empty, no block
  EXPECT_FALSE(q.pop_for(1000).has_value());
}

TEST(ClassQueue, PopForTimesOutOnEmpty) {
  ClassQueue q = fifo(1);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_for(2000).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::microseconds(1500));
}

TEST(ClassQueue, BlockingPushUnblocksOnPop) {
  ClassQueue q = fifo(1);
  ServeRequest a = req(1);
  ASSERT_TRUE(q.try_push(a));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(req(2)));  // blocks until the consumer pops
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still waiting on a full queue
  EXPECT_EQ(id_of(q.pop()), 1u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(id_of(q.pop()), 2u);
}

TEST(ClassQueue, CloseWakesBlockedProducer) {
  ClassQueue q = fifo(1);
  ServeRequest a = req(1);
  ASSERT_TRUE(q.try_push(a));
  std::thread producer([&] { EXPECT_FALSE(q.push(req(2))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
  EXPECT_EQ(id_of(q.pop()), 1u);  // the admitted request survives
}

TEST(ClassQueue, PushForTimesOutAndLeavesValueIntact) {
  ClassQueue q = fifo(1);
  ServeRequest a = req(1);
  ASSERT_TRUE(q.try_push(a));
  ServeRequest v = req(42);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.push_for(v, 2000), QueuePushResult::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::microseconds(1500));
  EXPECT_EQ(v.trace_id, 42u);  // a timed-out push must not consume it
  EXPECT_EQ(q.size(), 1u);
}

TEST(ClassQueue, PushForZeroBudgetAnswersImmediately) {
  // An already-expired deadline at the admission edge must fail fast, not
  // sleep: the server calls push_for(v, 0) to get a typed kTimeout (mapped
  // to ServeError::kDeadline) without a zero-duration wait_for, which
  // still costs a timed sleep on some libstdc++ builds.
  ClassQueue q = fifo(1);
  ServeRequest a = req(1);
  ASSERT_TRUE(q.try_push(a));
  ServeRequest v = req(42);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.push_for(v, 0), QueuePushResult::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(50));  // no sleep, just the verdict
  EXPECT_EQ(v.trace_id, 42u);
  // With space available a zero budget still admits (try_push semantics).
  ASSERT_TRUE(q.try_pop().has_value());
  EXPECT_EQ(q.push_for(v, 0), QueuePushResult::kOk);
  EXPECT_EQ(id_of(q.try_pop()), 42u);
  // And closed beats full or empty: the typed kClosed survives the fast
  // path.
  q.close();
  ServeRequest c = req(7);
  EXPECT_EQ(q.push_for(c, 0), QueuePushResult::kClosed);
}

TEST(ClassQueue, PushForSucceedsWhenSpaceFrees) {
  ClassQueue q = fifo(1);
  ServeRequest a = req(1);
  ASSERT_TRUE(q.try_push(a));
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(id_of(q.pop()), 1u);
  });
  ServeRequest v = req(2);
  EXPECT_EQ(q.push_for(v, 5u * 1000 * 1000), QueuePushResult::kOk);
  consumer.join();
  EXPECT_EQ(id_of(q.pop()), 2u);
}

TEST(ClassQueue, PushForReportsClosedDistinctFromTimeout) {
  ClassQueue q = fifo(1);
  ServeRequest a = req(1);
  ASSERT_TRUE(q.try_push(a));
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
  });
  ServeRequest v = req(2);
  // Blocked on a full queue, then woken by close: kClosed, not kTimeout.
  EXPECT_EQ(q.push_for(v, 5u * 1000 * 1000), QueuePushResult::kClosed);
  closer.join();
  ServeRequest c = req(3);
  EXPECT_EQ(q.push_for(c, 1000), QueuePushResult::kClosed);  // fast-fail now
}

TEST(ClassQueue, CloseWhileFullWakesEveryBlockedProducer) {
  // The stop() race in the serving stack: several clients blocked on a
  // full admission queue while another thread closes it. All of them must
  // wake and report failure — a single notify would strand the rest.
  constexpr int kProducers = 4;
  ClassQueue q = fifo(1);
  ServeRequest a = req(0);
  ASSERT_TRUE(q.try_push(a));
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      if (!q.push(req(static_cast<uint64_t>(p) + 1))) rejected.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (auto& t : producers) t.join();
  EXPECT_EQ(rejected.load(), kProducers);
  EXPECT_EQ(id_of(q.pop()), 0u);  // only the admitted request survives
  EXPECT_FALSE(q.pop().has_value());
}

TEST(ClassQueue, MpmcStressDeliversEveryElementOnce) {
  // 4 producers x 4 consumers through a deliberately tight queue: every
  // pushed request is popped exactly once and nothing is invented. This is
  // the test the TSan leg leans on.
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 500;
  ClassQueue q = fifo(8);
  std::atomic<int64_t> popped_sum{0};
  std::atomic<int> popped_count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p)
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(q.push(req(static_cast<uint64_t>(p) * kPerProducer + i)));
    });
  for (int c = 0; c < kConsumers; ++c)
    threads.emplace_back([&] {
      while (std::optional<ServeRequest> v = q.pop()) {
        popped_sum.fetch_add(static_cast<int64_t>(v->trace_id),
                             std::memory_order_relaxed);
        popped_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();  // producers done: consumers drain and see nullopt
  for (int c = 0; c < kConsumers; ++c) threads[kProducers + c].join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(popped_count.load(), total);
  EXPECT_EQ(popped_sum.load(),
            static_cast<int64_t>(total) * (total - 1) / 2);
}
