// Test oracle for util::SpscRing: a mutex-guarded bounded MPMC queue with
// the same push/pop/close contract.  The ring replaced it on every
// production edge; tests keep it as the straightforward reference the
// lock-free ring is checked against (test_properties drives both with
// the same random churn), and the Queue suite in test_util pins its
// contract.
//
// Capacity is two-dimensional: a count cap (always on) and an optional
// byte cap for payload-weighted accounting; each item carries a
// caller-supplied byte cost (default 0, which only the count cap sees).
// close() fails all future pushes, but items already queued remain
// poppable: pop() drains the backlog before signalling end-of-stream.
#pragma once

#include <cassert>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "util/thread_annotations.hpp"

namespace dlc {

template <typename T>
class BoundedQueue {
 public:
  /// `capacity` caps the item count; `capacity_bytes` (0 = unlimited)
  /// caps the summed per-item byte costs.  A capacity of 0 items means
  /// every push fails — a valid "drop everything" configuration.
  explicit BoundedQueue(std::size_t capacity, std::size_t capacity_bytes = 0)
      : capacity_(capacity), capacity_bytes_(capacity_bytes) {}

  /// Non-blocking push; returns false (and drops the item) when full,
  /// closed, or when `bytes` would exceed the byte cap.  An item whose
  /// cost lands exactly on the cap is accepted (the cap is inclusive).
  bool try_push(T item, std::size_t bytes = 0) {
    {
      const util::LockGuard lock(mutex_);
      if (closed_ || !has_room(bytes)) return false;
      bytes_ += bytes;
      items_.emplace_back(std::move(item), bytes);
    }
    cv_.notify_one();
    return true;
  }

  /// Blocking push (back-pressure, not drop): waits until the item fits,
  /// then enqueues it.  Returns false only when the queue is closed or the
  /// item can never fit (zero item capacity, or `bytes` above the byte
  /// cap).  `waited`, when given, is set to whether the call had to block
  /// — ingest executors count those as back-pressure events.
  bool push_wait(T item, std::size_t bytes = 0, bool* waited = nullptr) {
    if (waited) *waited = false;
    {
      util::UniqueLock lock(mutex_);
      if (capacity_ == 0 || (capacity_bytes_ > 0 && bytes > capacity_bytes_)) {
        return false;
      }
      if (!closed_ && !has_room(bytes)) {
        if (waited) *waited = true;
        cv_space_.wait(lock, [&]() DLC_REQUIRES(mutex_) {
          return closed_ || has_room(bytes);
        });
      }
      if (closed_) return false;
      bytes_ += bytes;
      items_.emplace_back(std::move(item), bytes);
    }
    cv_.notify_one();
    return true;
  }

  /// Blocking pop; returns nullopt once the queue is closed AND drained.
  std::optional<T> pop() {
    std::optional<T> out;
    {
      util::UniqueLock lock(mutex_);
      cv_.wait(lock, [&]() DLC_REQUIRES(mutex_) {
        return closed_ || !items_.empty();
      });
      if (items_.empty()) {
        assert(closed_);  // woken with nothing to pop => shutdown signal
        return std::nullopt;
      }
      out = take_front();
    }
    cv_space_.notify_one();
    return out;
  }

  /// Non-blocking pop; keeps draining after close().
  std::optional<T> try_pop() {
    std::optional<T> out;
    {
      const util::LockGuard lock(mutex_);
      if (items_.empty()) return std::nullopt;
      out = take_front();
    }
    cv_space_.notify_one();
    return out;
  }

  /// Closes the queue; pending items remain poppable, pushes fail.
  void close() {
    {
      const util::LockGuard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
    cv_space_.notify_all();
  }

  std::size_t size() const {
    const util::LockGuard lock(mutex_);
    return items_.size();
  }

  /// Summed byte costs of the queued items.
  std::size_t size_bytes() const {
    const util::LockGuard lock(mutex_);
    return bytes_;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  T take_front() DLC_REQUIRES(mutex_) {
    auto [item, bytes] = std::move(items_.front());
    items_.pop_front();
    bytes_ -= bytes;
    return std::move(item);
  }

  // See try_push for the wrap-safe byte headroom comparison:
  // bytes_ <= capacity_bytes_ is an invariant, so the subtraction cannot
  // underflow.
  bool has_room(std::size_t bytes) const DLC_REQUIRES(mutex_) {
    if (items_.size() >= capacity_) return false;
    return capacity_bytes_ == 0 || bytes <= capacity_bytes_ - bytes_;
  }

  const std::size_t capacity_;
  const std::size_t capacity_bytes_;
  mutable util::Mutex mutex_{"BoundedQueue"};
  util::CondVar cv_;
  util::CondVar cv_space_;
  std::deque<std::pair<T, std::size_t>> items_ DLC_GUARDED_BY(mutex_);
  std::size_t bytes_ DLC_GUARDED_BY(mutex_) = 0;
  bool closed_ DLC_GUARDED_BY(mutex_) = false;
};

}  // namespace dlc
