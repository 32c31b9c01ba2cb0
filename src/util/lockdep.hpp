// Lockdep-lite: a runtime lock-ORDER checker (the dynamic complement to
// the compile-time -Wthread-safety annotations).
//
// Every instrumented acquisition records "lock class H was held while
// acquiring lock class L" edges into a process-global directed graph,
// keyed by the lock-class name given at util::Mutex construction (all
// SpscRing mutexes are one class, like Linux lockdep classes).  A new
// edge that closes a cycle means two code paths take the same classes in
// opposite orders — a potential deadlock even if the schedules observed
// so far never interleaved badly.  This is the property TSan cannot see:
// it needs the bad interleaving to happen; lockdep only needs each order
// to happen once, on any thread, in any test.
//
// On the first occurrence of each conflicting edge the checker captures
// BOTH acquisition stacks (the held-lock chain recorded when the forward
// edge was first seen, and the chain at the violating acquisition) and
// appends them to the report.  Violations never abort: tests assert on
// violations() so a clean run proves the hierarchy.
//
// The checker itself is always compiled (so its own tests run in every
// build); util::Mutex only *calls into it* when DLC_LOCKDEP is defined
// (DARSHAN_LDMS_LOCKDEP CMake option, default-on for Debug builds).
// Overhead in instrumented builds is one global-mutex critical section
// per acquisition — strictly a debug configuration.
#pragma once

#include <cstdint>
#include <string>

namespace dlc::lockdep {

/// Records that the current thread acquired `lock`.  `name` is the lock
/// class; nullptr falls back to a per-instance class (no false sharing
/// between unrelated anonymous mutexes, but also no cross-instance order
/// checking for them — name every mutex that participates in a
/// hierarchy).
void on_acquire(const void* lock, const char* name) noexcept;

/// Records that the current thread released `lock` (out-of-order release
/// is fine; the most recent matching hold is removed).
void on_release(const void* lock) noexcept;

/// Cycles detected since the last reset (deduplicated per ordered pair
/// of lock classes).
std::uint64_t violations() noexcept;

/// Human-readable report of every violation: the two lock classes, and
/// the held-lock chains of both conflicting acquisitions.
std::string report();

/// Clears the graph, held-stacks survive (they describe live locks);
/// intended for test isolation.
void reset() noexcept;

/// True when util::Mutex is instrumented in this build.
constexpr bool enabled() {
#if DLC_LOCKDEP
  return true;
#else
  return false;
#endif
}

}  // namespace dlc::lockdep
