// Clang thread-safety ("capability") annotations plus annotated lock
// wrappers.
//
// Under clang, the macros expand to the attributes that drive
// -Wthread-safety: the compiler proves, per translation unit, that every
// access to a DLC_GUARDED_BY(mu) field happens with `mu` held, and that
// functions keep their DLC_REQUIRES/DLC_EXCLUDES contracts.  The build
// promotes violations to errors (-Werror=thread-safety), so a lock added
// or dropped in the wrong place fails compilation rather than surfacing
// as a rare TSan hit.  Under GCC (which has no such analysis) everything
// expands to nothing and the wrappers compile down to the std types.
//
// The wrappers also host the debug lock-order checker: when DLC_LOCKDEP
// is defined (the DARSHAN_LDMS_LOCKDEP CMake option, default-on in Debug
// builds), util::Mutex reports acquisitions to lockdep.hpp so every test
// run doubles as a lock-hierarchy check.  See DESIGN.md "Concurrency
// invariants & lock hierarchy".
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if DLC_LOCKDEP
#include "util/lockdep.hpp"
#endif

#if defined(__clang__) && (!defined(SWIG))
#define DLC_THREAD_ATTR(x) __attribute__((x))
#else
#define DLC_THREAD_ATTR(x)  // no-op: GCC has no thread-safety analysis
#endif

#define DLC_CAPABILITY(x) DLC_THREAD_ATTR(capability(x))
#define DLC_SCOPED_CAPABILITY DLC_THREAD_ATTR(scoped_lockable)
#define DLC_GUARDED_BY(x) DLC_THREAD_ATTR(guarded_by(x))
#define DLC_PT_GUARDED_BY(x) DLC_THREAD_ATTR(pt_guarded_by(x))
#define DLC_ACQUIRED_BEFORE(...) DLC_THREAD_ATTR(acquired_before(__VA_ARGS__))
#define DLC_ACQUIRED_AFTER(...) DLC_THREAD_ATTR(acquired_after(__VA_ARGS__))
#define DLC_REQUIRES(...) \
  DLC_THREAD_ATTR(requires_capability(__VA_ARGS__))
#define DLC_ACQUIRE(...) DLC_THREAD_ATTR(acquire_capability(__VA_ARGS__))
#define DLC_RELEASE(...) DLC_THREAD_ATTR(release_capability(__VA_ARGS__))
#define DLC_TRY_ACQUIRE(...) \
  DLC_THREAD_ATTR(try_acquire_capability(__VA_ARGS__))
#define DLC_EXCLUDES(...) DLC_THREAD_ATTR(locks_excluded(__VA_ARGS__))
#define DLC_RETURN_CAPABILITY(x) DLC_THREAD_ATTR(lock_returned(x))
#define DLC_NO_THREAD_SAFETY_ANALYSIS \
  DLC_THREAD_ATTR(no_thread_safety_analysis)

namespace dlc::util {

/// std::mutex with a capability annotation and (in DLC_LOCKDEP builds)
/// lock-order instrumentation.  The `name` is the mutex's *lock class*:
/// every instance constructed with the same name is one node in the
/// lock-order graph, exactly like Linux lockdep classes.
class DLC_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name = nullptr) : name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DLC_ACQUIRE() {
#if DLC_LOCKDEP
    lockdep::on_acquire(this, name_);
#endif
    m_.lock();
  }

  void unlock() DLC_RELEASE() {
    m_.unlock();
#if DLC_LOCKDEP
    lockdep::on_release(this);
#endif
  }

  bool try_lock() DLC_TRY_ACQUIRE(true) {
    const bool ok = m_.try_lock();
#if DLC_LOCKDEP
    if (ok) lockdep::on_acquire(this, name_);
#endif
    return ok;
  }

  /// The wrapped std::mutex, for CondVar (which must wait on the native
  /// type to keep std::condition_variable's fast path).
  std::mutex& native() { return m_; }
  const char* name() const { return name_; }

 private:
  std::mutex m_;
  const char* name_;
};

/// Scoped lock (std::scoped_lock/lock_guard replacement) understood by
/// the analysis: holding a LockGuard satisfies DLC_REQUIRES(mu).
class DLC_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) DLC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() DLC_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped lock that CondVar can wait on (std::unique_lock replacement).
/// Always owns the mutex outside of an in-progress CondVar wait; the
/// analysis treats the whole wait as "held", which matches what edges the
/// lock-order graph can observe (a sleeping thread acquires nothing).
class DLC_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) DLC_ACQUIRE(mu)
      : mu_(mu), lk_(mu.native()) {
#if DLC_LOCKDEP
    lockdep::on_acquire(&mu_, mu_.name());
#endif
  }
  ~UniqueLock() DLC_RELEASE() {
#if DLC_LOCKDEP
    lockdep::on_release(&mu_);
#endif
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  /// The wrapped std::unique_lock, for CondVar only.
  std::unique_lock<std::mutex>& native() { return lk_; }
  Mutex& mutex() DLC_RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  Mutex& mu_;
  std::unique_lock<std::mutex> lk_;
};

/// Condition variable over util::Mutex.  Predicates passed to wait()
/// run with the mutex held; annotate predicate lambdas with
/// DLC_REQUIRES(mu) so their guarded-field reads check out:
///
///   cv_.wait(lock, [&]() DLC_REQUIRES(mutex_) { return closed_; });
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(UniqueLock& lock) { cv_.wait(lock.native()); }

  template <typename Pred>
  void wait(UniqueLock& lock, Pred pred) DLC_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(lock.native(), std::move(pred));
  }

  /// Deadline wait (the ingest writer's linger).  Returns the
  /// predicate's value at wake-up: false means the deadline passed first.
  template <typename Clock, typename Duration, typename Pred>
  bool wait_until(UniqueLock& lock,
                  const std::chrono::time_point<Clock, Duration>& deadline,
                  Pred pred) DLC_NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_until(lock.native(), deadline, std::move(pred));
  }

 private:
  std::condition_variable cv_;
};

}  // namespace dlc::util
