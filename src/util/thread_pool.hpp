#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace srmac {

/// Persistent work-stealing thread pool shared by the emulation engine.
///
/// The seed implementation spawned fresh std::threads on every GEMM call;
/// at emulation step costs of tens of nanoseconds that start-up latency
/// dominated small and medium problem sizes. This pool starts its workers
/// once (lazily, on first use) and keeps them parked on a condition
/// variable between calls. Each worker owns a deque of chunks; a worker
/// that drains its own deque steals from the back of its siblings', so
/// uneven chunk costs (e.g. GEMM row blocks with different special-value
/// densities) rebalance automatically.
///
/// parallel_for is the only scheduling primitive the engine needs: it
/// splits an index range into chunks, distributes them across the workers
/// and the calling thread, and blocks until every chunk has run. Results
/// must not depend on execution order — all users of the pool derive
/// per-element seeds, so outputs are identical at any thread count.
class ThreadPool {
 public:
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// The process-wide pool (hardware_concurrency - 1 workers; the caller of
  /// parallel_for is the remaining participant). Created on first use.
  static ThreadPool& global();

  /// Maximum number of threads that can participate in one parallel_for
  /// (workers + the calling thread).
  int parallelism() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs body(lo, hi) over disjoint chunks covering [begin, end), on up to
  /// `max_threads` threads (0 = no cap), with at least `grain` indices per
  /// chunk. Blocks until the whole range has been processed. Calls from
  /// inside a pool task run inline (no nested parallelism). When a chunk
  /// throws, the other chunks still run; once all have finished, the first
  /// exception is rethrown on the caller.
  void parallel_for(int64_t begin, int64_t end,
                    const std::function<void(int64_t, int64_t)>& body,
                    int max_threads = 0, int64_t grain = 1);

  /// Always 1: the pool has no worker shards. Kept only because the
  /// repository benchmark (perfbench/) prints it on its host line.
  static int default_shards() { return 1; }

 private:
  explicit ThreadPool(int workers);
  struct State;  // queues, synchronization (kept out of the header)

  void worker_loop(int id);

  std::unique_ptr<State> state_;
  std::vector<std::thread> workers_;
};

}  // namespace srmac
