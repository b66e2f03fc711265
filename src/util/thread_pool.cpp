#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>

namespace srmac {

// Internal linkage: srmac::Batch is also the data loader's batch type
// (data/dataset.hpp), and two definitions of one name break the ODR.
namespace {
/// Set while a thread is executing a pool chunk: nested parallel_for calls
/// run inline instead of deadlocking on the workers they themselves occupy.
thread_local bool t_in_pool_task = false;

/// Marks the current thread as inside a pool chunk for one scope, and
/// restores the previous mark on exit — on the exception path too.
class InPoolTask {
 public:
  InPoolTask() : prev_(t_in_pool_task) { t_in_pool_task = true; }
  ~InPoolTask() { t_in_pool_task = prev_; }
  InPoolTask(const InPoolTask&) = delete;
  InPoolTask& operator=(const InPoolTask&) = delete;

 private:
  bool prev_;
};

/// One batch = one parallel_for invocation in flight. The body is the
/// caller's: parallel_for returns only once every chunk has finished, so it
/// outlives the batch and is never copied.
struct Batch {
  const std::function<void(int64_t, int64_t)>* body = nullptr;
  std::atomic<int> remaining{0};  ///< chunks not yet finished
  /// Set by the first chunk that throws, which alone then writes `error`;
  /// the caller reads it after `remaining` reaches zero (acquire), so the
  /// no-throw path takes no lock.
  std::atomic<bool> failed{false};
  std::exception_ptr error;
};

/// A chunk of a batch's index range, queued on one worker's deque.
struct Chunk {
  Batch* batch = nullptr;
  int64_t lo = 0, hi = 0;
};
}  // namespace

struct ThreadPool::State {
  struct Shard {
    std::mutex m;
    std::deque<Chunk> q;
  };
  std::vector<Shard> shards;  ///< one per worker, plus one for the caller
  std::mutex wake_m;
  std::condition_variable wake_cv;
  std::condition_variable done_cv;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> queued{0};  ///< chunks pushed and not yet popped

  explicit State(int nshards) : shards(nshards) {}

  bool pop(int shard_hint, Chunk* out) {
    const int n = static_cast<int>(shards.size());
    // Own deque from the front; siblings from the back (classic stealing
    // order: thieves take the largest-index chunks the owner queued last).
    for (int attempt = 0; attempt < n; ++attempt) {
      Shard& s = shards[(shard_hint + attempt) % n];
      std::lock_guard<std::mutex> lk(s.m);
      if (s.q.empty()) continue;
      if (attempt == 0) {
        *out = s.q.front();
        s.q.pop_front();
      } else {
        *out = s.q.back();
        s.q.pop_back();
      }
      queued.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  void run_chunk(const Chunk& c) {
    try {
      InPoolTask scope;
      (*c.batch->body)(c.lo, c.hi);
    } catch (...) {
      if (!c.batch->failed.exchange(true, std::memory_order_relaxed))
        c.batch->error = std::current_exception();
    }
    if (c.batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(wake_m);
      done_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int workers) {
  workers = std::max(0, workers);
  state_ = std::make_unique<State>(workers + 1);  // shard [workers] = caller's
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(state_->wake_m);
    state_->stop.store(true);
    state_->wake_cv.notify_all();
  }
  for (auto& t : workers_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(
      static_cast<int>(std::thread::hardware_concurrency()) - 1);
  return pool;
}

void ThreadPool::worker_loop(int id) {
  State& st = *state_;
  Chunk c;
  while (true) {
    if (st.pop(id, &c)) {
      st.run_chunk(c);
      continue;
    }
    std::unique_lock<std::mutex> lk(st.wake_m);
    st.wake_cv.wait(lk, [&] {
      return st.stop.load() || st.queued.load(std::memory_order_relaxed) > 0;
    });
    if (st.stop.load()) return;
  }
}

void ThreadPool::parallel_for(
    int64_t begin, int64_t end,
    const std::function<void(int64_t, int64_t)>& body, int max_threads,
    int64_t grain) {
  const int64_t span = end - begin;
  if (span <= 0) return;
  grain = std::max<int64_t>(1, grain);
  // At most span / grain chunks, split evenly, keeps every chunk at least
  // `grain` indices long.
  const int64_t max_chunks = std::max<int64_t>(1, span / grain);

  int nthreads = parallelism();
  if (max_threads > 0) nthreads = std::min(nthreads, max_threads);
  nthreads = static_cast<int>(std::min<int64_t>(nthreads, max_chunks));

  if (nthreads <= 1 || t_in_pool_task) {
    body(begin, end);
    return;
  }

  // A few chunks per thread so stealing can rebalance uneven chunk costs.
  // Any pool thread may take any chunk, so when fewer threads than the
  // whole pool may take part, one chunk per thread is what keeps the cap.
  State& st = *state_;
  const int64_t nchunks =
      nthreads < parallelism()
          ? nthreads
          : std::min<int64_t>(static_cast<int64_t>(nthreads) * 4, max_chunks);

  Batch batch;
  batch.body = &body;
  batch.remaining.store(static_cast<int>(nchunks));

  {
    const int nshards = static_cast<int>(st.shards.size());
    for (int64_t c = 0; c < nchunks; ++c) {
      State::Shard& s = st.shards[c % nshards];
      std::lock_guard<std::mutex> lk(s.m);
      s.q.push_back(Chunk{&batch, begin + span * c / nchunks,
                          begin + span * (c + 1) / nchunks});
      st.queued.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lk(st.wake_m);
    st.wake_cv.notify_all();
    // Also wake callers parked in another batch's completion wait: their
    // predicate admits new work (queued > 0) so they can help drain it.
    st.done_cv.notify_all();
  }

  // The caller participates: drain chunks (own shard = the extra one), then
  // wait for the stragglers other threads are still running.
  const int home = static_cast<int>(st.shards.size()) - 1;
  Chunk c;
  while (batch.remaining.load(std::memory_order_acquire) > 0) {
    if (st.pop(home, &c)) {
      st.run_chunk(c);
    } else {
      std::unique_lock<std::mutex> lk(st.wake_m);
      st.done_cv.wait(lk, [&] {
        return batch.remaining.load(std::memory_order_acquire) == 0 ||
               st.queued.load(std::memory_order_relaxed) > 0;
      });
    }
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace srmac
