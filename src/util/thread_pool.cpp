#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>

namespace srmac {

// Internal linkage: srmac::Batch is also the data loader's batch type
// (data/dataset.hpp), and two definitions of one name break the ODR.
namespace {
/// Set while a thread is executing a pool chunk: nested parallel_for calls
/// run inline instead of deadlocking on the workers they themselves occupy.
thread_local bool t_in_pool_task = false;

/// One batch = one parallel_for invocation in flight.
struct Batch {
  std::function<void(int64_t, int64_t)> body;
  std::atomic<int> remaining{0};  ///< chunks not yet finished
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
    t_in_pool_task = true;
    c.batch->body(c.lo, c.hi);
    t_in_pool_task = false;
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

int parse_cpulist_count(const std::string& list) {
  int count = 0;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t end = list.find(',', pos);
    if (end == std::string::npos) end = list.size();
    const std::string entry = list.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    char* rest = nullptr;
    const long lo = std::strtol(entry.c_str(), &rest, 10);
    if (rest == entry.c_str() || lo < 0) continue;  // not a number
    if (*rest == '-') {
      char* rest2 = nullptr;
      const long hi = std::strtol(rest + 1, &rest2, 10);
      if (rest2 == rest + 1 || hi < lo) continue;  // malformed range
      count += static_cast<int>(hi - lo + 1);
    } else {
      count += 1;
    }
  }
  return count;
}

namespace {

ShardTopology detect_topology() try {
  ShardTopology topo;
  std::error_code ec;
  const std::filesystem::path root("/sys/devices/system/node");
  if (!std::filesystem::is_directory(root, ec) || ec) return topo;
  // increment(ec), not a range-for: the range-for's operator++ throws, and
  // a sandboxed /sys that fails mid-readdir must degrade to the 1-shard
  // fallback, not terminate the process.
  std::filesystem::directory_iterator it(root, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind("node", 0) != 0 || name.size() <= 4) continue;
    if (name.find_first_not_of("0123456789", 4) != std::string::npos) continue;
    std::ifstream cpulist(it->path() / "cpulist");
    std::string list;
    if (cpulist) std::getline(cpulist, list);
    const int cpus = parse_cpulist_count(list);
    // Memory-only nodes (CXL expanders, pmem) have an empty cpulist; a
    // shard with no CPUs would only collect phantom queues drained by
    // cross-node steals, so they don't count.
    if (cpus > 0) topo.cpus_per_shard.push_back(cpus);
  }
  if (ec || topo.cpus_per_shard.empty()) return ShardTopology{};
  topo.shards = static_cast<int>(topo.cpus_per_shard.size());
  topo.from_sysfs = true;
  return topo;
} catch (...) {
  return ShardTopology{};  // any filesystem surprise means "no topology"
}

/// The --shards override; 0 = auto (env, then topology).
std::atomic<int> g_shard_override{0};

}  // namespace

const ShardTopology& ThreadPool::topology() {
  static const ShardTopology topo = detect_topology();
  return topo;
}

void ThreadPool::set_default_shards(int shards) {
  g_shard_override.store(std::max(0, shards), std::memory_order_relaxed);
}

int ThreadPool::default_shards() {
  const int forced = g_shard_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  static const int env_shards = [] {
    const char* v = std::getenv("SRMAC_SHARDS");
    return v ? std::atoi(v) : 0;
  }();
  if (env_shards > 0) return env_shards;
  return topology().shards;
}

void ThreadPool::parallel_for_sharded(
    int64_t count, int nshards, const std::function<void(int64_t)>& item,
    const std::function<int(int64_t)>& shard_of, ShardStats* stats,
    int max_threads) {
  if (stats) *stats = ShardStats{};
  if (count <= 0) return;
  if (nshards <= 0) nshards = default_shards();
  const int S = static_cast<int>(
      std::min<int64_t>(std::max(1, nshards), count));

  // One FIFO queue per shard; whole items are routed by shard_of. The
  // queues exist per dispatch, so the shard count is a per-call parameter
  // (--shards sweeps need no pool reconstruction).
  struct ShardQueue {
    std::mutex m;
    std::deque<int64_t> q;
  };
  std::vector<ShardQueue> queues(S);
  for (int64_t i = 0; i < count; ++i) {
    const int s = ((shard_of(i) % S) + S) % S;
    queues[s].q.push_back(i);
  }

  int participants = parallelism();
  if (max_threads > 0) participants = std::min(participants, max_threads);
  participants = static_cast<int>(std::min<int64_t>(participants, count));
  participants = std::max(participants, 1);
  const int P = participants;

  std::atomic<uint64_t> migrated{0};
  // Each participant homes on shard p*S/P (contiguous, balanced): with
  // P >= S every shard has a resident drainer, with P < S the homeless
  // shards are drained through the steal scan below.
  auto drain = [&](int p) {
    const int home = static_cast<int>(static_cast<int64_t>(p) * S / P);
    while (true) {
      int64_t idx = -1;
      int from = -1;
      for (int attempt = 0; attempt < S; ++attempt) {
        ShardQueue& sq = queues[(home + attempt) % S];
        std::lock_guard<std::mutex> lk(sq.m);
        if (sq.q.empty()) continue;
        if (attempt == 0) {
          idx = sq.q.front();  // own shard drains in routed order
          sq.q.pop_front();
        } else {
          idx = sq.q.back();  // thieves take from the tail
          sq.q.pop_back();
        }
        from = (home + attempt) % S;
        break;
      }
      if (idx < 0) return;
      if (from != home) migrated.fetch_add(1, std::memory_order_relaxed);
      item(idx);
    }
  };

  // The participants themselves schedule on the plain pool, one chunk per
  // participant (grain 1); nested calls inside a pool task collapse to one
  // inline participant, which drains every shard sequentially.
  parallel_for(
      0, P,
      [&](int64_t lo, int64_t hi) {
        for (int64_t p = lo; p < hi; ++p) drain(static_cast<int>(p));
      },
      P, /*grain=*/1);
  if (stats) stats->migrations = migrated.load(std::memory_order_relaxed);
}

void ThreadPool::parallel_for(
    int64_t begin, int64_t end,
    const std::function<void(int64_t, int64_t)>& body, int max_threads,
    int64_t grain) {
  const int64_t span = end - begin;
  if (span <= 0) return;
  grain = std::max<int64_t>(1, grain);

  int nthreads = parallelism();
  if (max_threads > 0) nthreads = std::min(nthreads, max_threads);
  nthreads = static_cast<int>(
      std::min<int64_t>(nthreads, (span + grain - 1) / grain));

  if (nthreads <= 1 || t_in_pool_task) {
    body(begin, end);
    return;
  }

  // A few chunks per thread so stealing can rebalance uneven chunk costs.
  State& st = *state_;
  const int64_t nchunks =
      std::min<int64_t>(static_cast<int64_t>(nthreads) * 4,
                        (span + grain - 1) / grain);
  const int64_t chunk = (span + nchunks - 1) / nchunks;

  Batch batch;
  batch.body = body;
  batch.remaining.store(static_cast<int>((span + chunk - 1) / chunk));

  {
    const int nshards = static_cast<int>(st.shards.size());
    int shard = 0;
    for (int64_t lo = begin; lo < end; lo += chunk, ++shard) {
      const int64_t hi = std::min(end, lo + chunk);
      State::Shard& s = st.shards[shard % nshards];
      std::lock_guard<std::mutex> lk(s.m);
      s.q.push_back(Chunk{&batch, lo, hi});
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
}

}  // namespace srmac
