// Lock-free single-producer/single-consumer bounded ring queue.
//
// A mutex-guarded queue serialises every push and pop behind one lock,
// the dominant cost on the ingest hot path, where every edge is exactly
// one producer thread feeding exactly one consumer thread — the decoder
// thread filling a shard writer's queue, or a bus callback feeding a
// forwarder worker.  SpscRing serves those edges: the fast path is two
// cache-line-padded monotonic indices published with release/acquire
// stores, no lock, no syscall.  tests/bounded_queue.hpp keeps the
// mutex-guarded queue it replaced as the test oracle.
//
// Contract (shared with that oracle):
//   * try_push(item, bytes) / push_wait(item, bytes, waited*) /
//     pop() / try_pop() / close() / size() / size_bytes(), with the same
//     semantics: push_wait returns false immediately when capacity()==0
//     or `bytes` exceeds the byte cap; close() fails all future pushes
//     but the backlog stays poppable; pop() returns nullopt only when
//     closed AND drained.
//   * The blocking paths (push_wait on full, pop on empty, close
//     wakeups) still use a util::Mutex — lock class "SpscRing", a leaf
//     in the DESIGN.md 5c hierarchy — plus condition variables.  The
//     mutex is only ever taken on those slow paths, so lockdep and the
//     clang thread-safety pass keep seeing (and checking) the shutdown
//     protocol while steady-state traffic never touches it.
//
// THREAD CONTRACT: at most one thread may call push-side operations
// (try_push/push_wait) and at most one thread may call pop-side
// operations (pop/try_pop) at any time.  close() and the size probes may
// be called from any thread.  close() is a producer-quiesce protocol,
// not a barrier: a push that already passed its closed-check may land
// concurrently with close() — callers stop the producer before relying
// on a sealed queue (both deployments join/unsubscribe first).
//
// Memory ordering (DESIGN.md section 9 walks the proof):
//   * Slots are published by storing tail_ with memory_order_release
//     after the slot write; the consumer's acquire load of tail_ makes
//     the slot contents visible.  Symmetrically head_ release/acquire
//     publishes slot reuse to the producer.
//   * Each side keeps a cached copy of the other side's index
//     (head_cache_/tail_cache_) so the steady-state fast path touches
//     only its own cache line; the cache is refreshed from the shared
//     atomic only when it says full/empty.
//   * Sleep/wake uses the Dekker store-buffering pattern
//     ([atomics.fences]/4): the waiter registers in waiters_ (relaxed
//     RMW), executes a seq_cst fence, then re-checks the indices; the
//     signaller publishes its index (release), executes a seq_cst
//     fence, then reads waiters_.  One of the two fences is first in
//     the total order S, so either the waiter sees the new index and
//     never sleeps, or the signaller sees the registration and
//     notifies.  The signaller's empty lock/unlock of m_ before
//     notify closes the remaining window between the waiter's final
//     predicate check (under m_) and its actual sleep.
//
// VERIFICATION: the class is templated over an atomics policy
// (util/atomics_policy.hpp).  Production code uses the SpscRing<T>
// alias = SpscRingT<T, util::StdAtomicsPolicy>, which compiles to
// exactly the pre-templatization code (the policy aliases are the std
// types and the name()/fence-site hooks are empty inline functions).
// tests/test_mc.cpp instantiates SpscRingT<T, mc::McPolicy> and
// exhaustively model-checks push/pop, wraparound, close-vs-push_wait
// and the Dekker sleep/wake handshake — including seeded ordering
// mutants that prove the checker actually sees weakened protocols
// (DESIGN.md section 10).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "util/atomics_policy.hpp"
#include "util/thread_annotations.hpp"

namespace dlc {

template <typename T, typename P>
class SpscRingT {
 public:
  /// `capacity` = max queued items; `capacity_bytes` additionally caps
  /// the queued payload bytes when nonzero (the caller passes each
  /// item's size to push).
  explicit SpscRingT(std::size_t capacity, std::size_t capacity_bytes = 0)
      : capacity_(capacity),
        capacity_bytes_(capacity_bytes),
        mask_(slot_count(capacity) - 1),
        slots_(std::make_unique<Slot[]>(slot_count(capacity))) {
    P::name(head_, "spsc.head");
    P::name(tail_, "spsc.tail");
    P::name(bytes_, "spsc.bytes");
    P::name(closed_, "spsc.closed");
    P::name(data_waiters_, "spsc.data_waiters");
    P::name(space_waiters_, "spsc.space_waiters");
  }

  SpscRingT(const SpscRingT&) = delete;
  SpscRingT& operator=(const SpscRingT&) = delete;

  /// Producer only.  False when closed or full (item or byte cap).
  bool try_push(T item, std::size_t bytes = 0) {
    if (closed_.load(std::memory_order_acquire)) return false;
    if (!room_for(bytes)) return false;
    publish(std::move(item), bytes);
    return true;
  }

  /// Producer only.  Blocks until there is room or the queue is closed;
  /// returns false (dropping the item) on close, zero capacity, or an
  /// item larger than the whole byte budget.  `waited`, when non-null,
  /// is set to true iff the call had to block (back-pressure
  /// accounting).
  bool push_wait(T item, std::size_t bytes = 0, bool* waited = nullptr) {
    if (waited != nullptr) *waited = false;
    if (capacity_ == 0) return false;
    if (capacity_bytes_ != 0 && bytes > capacity_bytes_) return false;
    if (closed_.load(std::memory_order_acquire)) return false;
    if (room_for(bytes)) {
      publish(std::move(item), bytes);
      return true;
    }
    if (waited != nullptr) *waited = true;
    space_waiters_.fetch_add(1, std::memory_order_relaxed);
    P::fence(std::memory_order_seq_cst, "spsc.fence.push_waiter");
    {
      typename P::UniqueLock lock(m_);
      cv_space_.wait(lock, [&] {
        return closed_.load(std::memory_order_acquire) || room_for(bytes);
      });
    }
    space_waiters_.fetch_sub(1, std::memory_order_relaxed);
    if (closed_.load(std::memory_order_acquire)) return false;
    publish(std::move(item), bytes);
    return true;
  }

  /// Consumer only.  Empty-or-not without blocking; keeps draining the
  /// backlog after close().
  std::optional<T> try_pop() {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (h == tail_cache_) return std::nullopt;
    }
    Slot& slot = slots_[h & mask_];
    std::optional<T> out(std::move(slot.item));
    const std::size_t bytes = slot.bytes;
    slot.item = T{};  // release payload now, not at slot reuse
    head_.store(h + 1, std::memory_order_release);
    if (bytes != 0) bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    wake_side(space_waiters_, cv_space_);
    return out;
  }

  /// Consumer only.  Blocks until an item arrives; nullopt once the
  /// queue is closed AND drained.
  std::optional<T> pop() {
    for (;;) {
      if (auto out = try_pop()) return out;
      data_waiters_.fetch_add(1, std::memory_order_relaxed);
      P::fence(std::memory_order_seq_cst, "spsc.fence.pop_waiter");
      {
        typename P::UniqueLock lock(m_);
        cv_data_.wait(lock, [&] {
          return closed_.load(std::memory_order_acquire) ||
                 tail_.load(std::memory_order_acquire) !=
                     head_.load(std::memory_order_relaxed);
        });
      }
      data_waiters_.fetch_sub(1, std::memory_order_relaxed);
      if (auto out = try_pop()) return out;
      if (closed_.load(std::memory_order_acquire)) return std::nullopt;
    }
  }

  /// Any thread.  Future pushes fail; queued items remain poppable.
  /// Publishing closed_ under m_ pairs with the waiters' predicate
  /// checks (also under m_), so no waiter can sleep through a close.
  void close() {
    {
      const typename P::LockGuard lock(m_);
      closed_.store(true, std::memory_order_release);
    }
    cv_data_.notify_all();
    cv_space_.notify_all();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Approximate (racy but monotonic-consistent) depth, for diagnostics
  /// and wakeup predicates.
  std::size_t size() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    return t >= h ? static_cast<std::size_t>(t - h) : 0;
  }
  std::size_t size_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return capacity_; }
  std::size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Slot {
    typename P::template Var<T> item{};
    typename P::template Var<std::size_t> bytes{};
  };

  /// Smallest power of two >= capacity (>= 1 so the masks stay valid
  /// even for the capacity-0 "reject everything" configuration).
  static std::size_t slot_count(std::size_t capacity) {
    std::size_t n = 1;
    while (n < capacity) n <<= 1;
    return n;
  }

  /// Producer side.  Conservative: reads its own tail plus the cached
  /// (possibly stale) head, so it can under-report room but never
  /// over-report.  bytes_ only ever shrinks under the producer's feet
  /// (the consumer subtracts), so the byte check is conservative too.
  bool room_for(std::size_t bytes) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (t - head_cache_ >= capacity_) return false;
    }
    if (capacity_bytes_ != 0 && bytes != 0) {
      const std::size_t queued = bytes_.load(std::memory_order_relaxed);
      if (queued > capacity_bytes_ || bytes > capacity_bytes_ - queued) {
        return false;
      }
    }
    return true;
  }

  /// Producer side; requires room_for() to have just returned true.
  void publish(T&& item, std::size_t bytes) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    Slot& slot = slots_[t & mask_];
    slot.item = std::move(item);
    slot.bytes = bytes;
    if (bytes != 0) bytes_.fetch_add(bytes, std::memory_order_relaxed);
    tail_.store(t + 1, std::memory_order_release);
    wake_side(data_waiters_, cv_data_);
  }

  /// Dekker signaller half: fence, then notify only if the other side
  /// registered as waiting.  The empty critical section serialises with
  /// the waiter's predicate check under m_ (see file comment).
  void wake_side(const typename P::template Atomic<std::uint32_t>& waiters,
                 typename P::CondVar& cv) {
    P::fence(std::memory_order_seq_cst, "spsc.fence.wake");
    if (waiters.load(std::memory_order_relaxed) != 0) {
      { const typename P::LockGuard lock(m_); }
      cv.notify_one();
    }
  }

  const std::size_t capacity_;
  const std::size_t capacity_bytes_;
  const std::size_t mask_;
  const std::unique_ptr<Slot[]> slots_;

  // Consumer cache line: the consumer's own index plus its cached view
  // of the producer's.
  // atomic-protocol: kind=spsc-index pairs=spsc_ring.hpp:try_pop/room_for
  alignas(64) typename P::template Atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
  // Producer cache line, symmetric.
  // atomic-protocol: kind=spsc-index pairs=spsc_ring.hpp:publish/try_pop
  alignas(64) typename P::template Atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;

  // atomic-protocol: kind=counter pairs=spsc_ring.hpp:publish/try_pop
  alignas(64) typename P::template Atomic<std::size_t> bytes_{0};
  // atomic-protocol: kind=flag pairs=spsc_ring.hpp:close/push_wait/pop
  typename P::template Atomic<bool> closed_{false};
  // atomic-protocol: kind=dekker-waiters pairs=spsc_ring.hpp:pop/wake_side
  typename P::template Atomic<std::uint32_t> data_waiters_{0};
  // atomic-protocol: kind=dekker-waiters pairs=spsc_ring.hpp:push_wait/wake_side
  typename P::template Atomic<std::uint32_t> space_waiters_{0};

  // Slow paths only: push_wait on full, pop on empty, close().
  // Leaf lock — nothing else is acquired while it is held.
  mutable typename P::Mutex m_{"SpscRing"};
  typename P::CondVar cv_data_;
  typename P::CondVar cv_space_;
};

/// Production instantiation: plain std::atomic / util::Mutex, identical
/// code to the pre-policy SpscRing.
template <typename T>
using SpscRing = SpscRingT<T, util::StdAtomicsPolicy>;

}  // namespace dlc
