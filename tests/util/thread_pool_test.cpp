// The persistent thread pool's parallel_for contract: every index runs
// exactly once, the max_threads and grain caps hold, an empty range does
// nothing, a nested call runs inline, and an exception thrown by a chunk —
// on a worker or on the caller — reaches the caller after the other chunks
// have finished, with the pool left fully usable. A dispatch never copies
// the caller's body.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace srmac {
namespace {

/// Thread ids seen by the chunks of one parallel_for, each chunk sleeping
/// `hold` so that idle threads get the chance to take part.
struct ThreadLog {
  std::mutex m;
  std::set<std::thread::id> ids;
  void note(std::chrono::milliseconds hold) {
    {
      std::lock_guard<std::mutex> lk(m);
      ids.insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(hold);
  }
  size_t size() {
    std::lock_guard<std::mutex> lk(m);
    return ids.size();
  }
};

/// Runs a full range of sleeping chunks and returns how many threads took
/// part; every index must run exactly once.
size_t threads_over_full_range() {
  ThreadPool& pool = ThreadPool::global();
  const int64_t n = 4 * pool.parallelism();
  std::vector<std::atomic<int>> hits(n);
  ThreadLog log;
  pool.parallel_for(0, n, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    log.note(std::chrono::milliseconds(5));
  });
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  return log.size();
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  const int64_t begin = 5, end = 5 + 997;
  std::vector<std::atomic<int>> hits(end);
  ThreadPool::global().parallel_for(begin, end, [&](int64_t lo, int64_t hi) {
    ASSERT_LE(begin, lo);
    ASSERT_LT(lo, hi);
    ASSERT_LE(hi, end);
    for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < end; ++i)
    EXPECT_EQ(hits[i].load(), i < begin ? 0 : 1) << i;
}

TEST(ParallelFor, ThreadCapHolds) {
  const int par = ThreadPool::global().parallelism();
  for (int cap = 1; cap <= par; ++cap) {
    ThreadLog log;
    std::atomic<int64_t> covered{0};
    ThreadPool::global().parallel_for(
        0, 64,
        [&](int64_t lo, int64_t hi) {
          covered.fetch_add(hi - lo);
          log.note(std::chrono::milliseconds(2));
        },
        cap);
    EXPECT_EQ(covered.load(), 64);
    EXPECT_LE(log.size(), static_cast<size_t>(cap)) << "cap " << cap;
  }
}

TEST(ParallelFor, CapOfOneRunsOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ThreadPool::global().parallel_for(
      0, 100,
      [&](int64_t lo, int64_t hi) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 100);
        ++calls;
      },
      /*max_threads=*/1);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, GrainCapHolds) {
  for (const int64_t grain : {1, 7, 30, 64, 250}) {
    for (const int64_t span : {1, 29, 60, 100, 1000}) {
      std::mutex m;
      std::vector<int64_t> chunks;
      ThreadPool::global().parallel_for(
          0, span,
          [&](int64_t lo, int64_t hi) {
            std::lock_guard<std::mutex> lk(m);
            chunks.push_back(hi - lo);
          },
          0, grain);
      int64_t covered = 0;
      for (const int64_t c : chunks) covered += c;
      EXPECT_EQ(covered, span) << "grain " << grain << " span " << span;
      if (span < grain) {
        EXPECT_EQ(chunks.size(), 1u) << "a short range is one chunk";
      } else {
        EXPECT_GE(*std::min_element(chunks.begin(), chunks.end()), grain)
            << "grain " << grain << " span " << span;
      }
    }
  }
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  const std::pair<int64_t, int64_t> ranges[] = {{0, 0}, {7, 7}, {9, 3}};
  for (const auto& [begin, end] : ranges) {
    ThreadPool::global().parallel_for(begin, end, [](int64_t, int64_t) {
      FAIL() << "no indices to run";
    });
  }
}

TEST(ParallelFor, NestedInsidePoolTaskRunsInline) {
  std::atomic<int> ran{0};
  std::atomic<int> off_thread{0};
  ThreadPool::global().parallel_for(0, 8, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const std::thread::id outer = std::this_thread::get_id();
      int calls = 0;
      ThreadPool::global().parallel_for(0, 1000, [&](int64_t a, int64_t b) {
        if (std::this_thread::get_id() != outer) off_thread.fetch_add(1);
        ++calls;
        ran.fetch_add(static_cast<int>(b - a));
      });
      EXPECT_EQ(calls, 1) << "a nested call is one inline chunk";
    }
  });
  EXPECT_EQ(ran.load(), 8 * 1000);
  EXPECT_EQ(off_thread.load(), 0);
}

// A dispatch to every pool thread runs the caller's body where it is: a
// body that counts its copies is copied only when the caller wraps it in
// the std::function.
TEST(ParallelFor, DoesNotCopyTheBody) {
  struct Counting {
    std::atomic<int>* copies;
    std::atomic<int64_t>* covered;
    Counting(std::atomic<int>* c, std::atomic<int64_t>* v)
        : copies(c), covered(v) {}
    Counting(const Counting& o) : copies(o.copies), covered(o.covered) {
      copies->fetch_add(1);
    }
    Counting& operator=(const Counting&) = delete;
    void operator()(int64_t lo, int64_t hi) const {
      covered->fetch_add(hi - lo);
    }
  };
  std::atomic<int> copies{0};
  std::atomic<int64_t> covered{0};
  const std::function<void(int64_t, int64_t)> body =
      Counting(&copies, &covered);
  copies.store(0);
  const int64_t n = 4 * ThreadPool::global().parallelism();
  ThreadPool::global().parallel_for(0, n, body);
  EXPECT_EQ(covered.load(), n);
  EXPECT_EQ(copies.load(), 0);
}

// A chunk that throws on a worker thread: the exception reaches the
// caller (not std::terminate), every other chunk still runs, and the pool
// then covers a full range on more than one thread.
TEST(ParallelFor, WorkerExceptionReachesTheCaller) {
  if (ThreadPool::global().parallelism() < 2) GTEST_SKIP() << "no workers";
  const std::thread::id caller = std::this_thread::get_id();
  const int64_t n = 4 * ThreadPool::global().parallelism();
  std::atomic<int64_t> covered{0};
  std::atomic<int> worker_throws{0};
  EXPECT_THROW(
      ThreadPool::global().parallel_for(0, n,
                                        [&](int64_t lo, int64_t hi) {
                                          covered.fetch_add(hi - lo);
                                          if (std::this_thread::get_id() !=
                                              caller) {
                                            worker_throws.fetch_add(1);
                                            throw std::runtime_error("worker");
                                          }
                                          std::this_thread::sleep_for(
                                              std::chrono::milliseconds(5));
                                        }),
      std::runtime_error);
  EXPECT_GT(worker_throws.load(), 0);
  EXPECT_EQ(covered.load(), n) << "the other chunks still ran";
  EXPECT_GT(threads_over_full_range(), 1u);
}

// A chunk that throws on the caller: rethrown once the workers are done
// with the caller's batch, and the caller's later calls still fan out
// (the in-pool-task mark was restored).
TEST(ParallelFor, CallerExceptionRestoresThePool) {
  if (ThreadPool::global().parallelism() < 2) GTEST_SKIP() << "no workers";
  const std::thread::id caller = std::this_thread::get_id();
  const int64_t n = 4 * ThreadPool::global().parallelism();
  std::atomic<int64_t> covered{0};
  try {
    ThreadPool::global().parallel_for(0, n, [&](int64_t lo, int64_t hi) {
      covered.fetch_add(hi - lo);
      if (std::this_thread::get_id() == caller)
        throw std::logic_error("caller");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
    FAIL() << "expected the caller's exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "caller");
  }
  EXPECT_EQ(covered.load(), n) << "the other chunks still ran";
  EXPECT_GT(threads_over_full_range(), 1u);
}

}  // namespace
}  // namespace srmac
