#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "serve/serve_types.hpp"

namespace srmac {

/// Outcome of a deadline-bounded push (ClassQueue::push_for): admitted, out
/// of time, or refused because the queue closed. The serving stack maps
/// kTimeout to ServeError::kDeadline and kClosed to ServeError::kStopped.
enum class QueuePushResult { kOk, kTimeout, kClosed };

/// The serving stack's bounded MPMC admission queue, with priority classes:
/// N per-class deques under one shared capacity (docs/SERVING.md "Grouped
/// execution & priority classes"). A full queue blocks (or rejects, for
/// try_push) producers instead of growing without bound, so a burst of
/// clients back-pressures at the submission edge. A mutex plus two
/// condition variables (one per direction) keeps it obviously correct
/// under ThreadSanitizer.
///
/// Producers push into the deque named by the request's (clamped) priority;
/// consumers pop through a deterministic weighted-credit drain: each class
/// carries `weight` credits per refill round, classes are scanned highest
/// priority first, and the first class with both pending work and remaining
/// credits yields the element. When every non-empty class is out of credits,
/// all credits refill and the scan restarts — so under contention class i
/// gets weight_i / sum(weights) of the drain, strictly ordered within a
/// round, and the schedule is a pure function of push order (no clocks, no
/// randomness — the serving determinism tests rely on this).
///
/// With one class of weight 1 (the default when ServeConfig::classes is
/// empty) the drain degenerates to exact FIFO — the serving stack uses this
/// one type for both modes rather than two code paths.
///
/// The capacity bound spans all classes (admission backpressure is a memory
/// bound, not a fairness knob — fairness lives in the drain order).
/// close() ends the stream: producers are refused from then on, but
/// consumers keep draining what was admitted — pop() returns std::nullopt
/// only once closed AND fully drained, so no accepted request is dropped.
class ClassQueue {
 public:
  /// `weights` carries one entry per class, highest priority first; entries
  /// clamp to >= 1 and an empty vector means one default class.
  ClassQueue(size_t capacity, std::vector<int> weights)
      : capacity_(capacity ? capacity : 1), weights_(std::move(weights)) {
    if (weights_.empty()) weights_.push_back(1);
    for (int& w : weights_)
      if (w < 1) w = 1;
    q_.resize(weights_.size());
    credits_.assign(weights_.begin(), weights_.end());
  }
  ClassQueue(const ClassQueue&) = delete;
  ClassQueue& operator=(const ClassQueue&) = delete;

  /// Blocks while the queue is full. Returns false (and drops `v`) when the
  /// queue was closed before space became available.
  bool push(ServeRequest v) {
    std::unique_lock<std::mutex> lk(m_);
    space_cv_.wait(lk, [&] { return closed_ || size_ < capacity_; });
    if (closed_) return false;
    push_locked(std::move(v));
    lk.unlock();
    item_cv_.notify_one();
    return true;
  }

  /// Deadline-aware admission: blocks while full, for at most timeout_us of
  /// real time. On kTimeout and kClosed `v` is left untouched so the caller
  /// can fail the request upward.
  QueuePushResult push_for(ServeRequest& v, uint64_t timeout_us) {
    std::unique_lock<std::mutex> lk(m_);
    if (timeout_us == 0) {
      // An exhausted budget answers immediately — no wait_for call, whose
      // zero-duration path still costs a timed sleep on some libstdc++
      // builds. The server admits with an already-expired deadline to
      // report kDeadline rather than guess, at try_push speed.
      if (closed_) return QueuePushResult::kClosed;
      if (size_ >= capacity_) return QueuePushResult::kTimeout;
    } else if (!space_cv_.wait_for(
                   lk, std::chrono::microseconds(timeout_us),
                   [&] { return closed_ || size_ < capacity_; })) {
      return QueuePushResult::kTimeout;
    }
    if (closed_) return QueuePushResult::kClosed;
    push_locked(std::move(v));
    lk.unlock();
    item_cv_.notify_one();
    return QueuePushResult::kOk;
  }

  /// Non-blocking push; false when full or closed (`v` untouched).
  bool try_push(ServeRequest& v) {
    {
      std::lock_guard<std::mutex> lk(m_);
      if (closed_ || size_ >= capacity_) return false;
      push_locked(std::move(v));
    }
    item_cv_.notify_one();
    return true;
  }

  /// Blocks until an element is available; std::nullopt once closed AND
  /// drained.
  std::optional<ServeRequest> pop() {
    std::unique_lock<std::mutex> lk(m_);
    item_cv_.wait(lk, [&] { return closed_ || size_ > 0; });
    return pop_locked(lk);
  }

  /// pop() with a real-time bound; std::nullopt on timeout as well as on
  /// closed-and-drained (disambiguate with closed()).
  std::optional<ServeRequest> pop_for(uint64_t timeout_us) {
    std::unique_lock<std::mutex> lk(m_);
    item_cv_.wait_for(lk, std::chrono::microseconds(timeout_us),
                      [&] { return closed_ || size_ > 0; });
    return pop_locked(lk);
  }

  /// Non-blocking pop.
  std::optional<ServeRequest> try_pop() {
    std::unique_lock<std::mutex> lk(m_);
    return pop_locked(lk);
  }

  /// Refuses all future pushes and wakes every waiter; queued elements stay
  /// poppable (drain semantics).
  void close() {
    {
      std::lock_guard<std::mutex> lk(m_);
      closed_ = true;
    }
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lk(m_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lk(m_);
    return size_;
  }

  size_t capacity() const { return capacity_; }
  size_t classes() const { return weights_.size(); }

 private:
  void push_locked(ServeRequest v) {
    size_t cls = static_cast<size_t>(
        v.priority < 0 ? 0
                       : (static_cast<size_t>(v.priority) >= q_.size()
                              ? q_.size() - 1
                              : static_cast<size_t>(v.priority)));
    q_[cls].push_back(std::move(v));
    ++size_;
  }

  /// The weighted-credit pick: highest class with pending work and credits
  /// left wins; when no non-empty class has credits, refill and rescan
  /// (terminates: size_ > 0 means some deque is non-empty and every weight
  /// is >= 1, so the post-refill scan always matches).
  int pick_locked() {
    if (size_ == 0) return -1;
    for (;;) {
      for (size_t c = 0; c < q_.size(); ++c) {
        if (!q_[c].empty() && credits_[c] > 0) {
          --credits_[c];
          return static_cast<int>(c);
        }
      }
      credits_.assign(weights_.begin(), weights_.end());
    }
  }

  std::optional<ServeRequest> pop_locked(std::unique_lock<std::mutex>& lk) {
    int cls = pick_locked();
    if (cls < 0) return std::nullopt;
    auto& dq = q_[static_cast<size_t>(cls)];
    std::optional<ServeRequest> v(std::move(dq.front()));
    dq.pop_front();
    --size_;
    lk.unlock();
    space_cv_.notify_one();
    return v;
  }

  const size_t capacity_;
  std::vector<int> weights_;   ///< per class, clamped >= 1
  mutable std::mutex m_;
  std::condition_variable item_cv_;   ///< waited on by consumers
  std::condition_variable space_cv_;  ///< waited on by producers
  std::vector<std::deque<ServeRequest>> q_;  ///< one deque per class
  std::vector<int> credits_;  ///< remaining drain credits this round
  size_t size_ = 0;           ///< total elements across classes
  bool closed_ = false;
};

}  // namespace srmac
