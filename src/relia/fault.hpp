// FaultPlan: a tiny text DSL for scripted transport faults.
//
// Soak tests and bench_relia drive identical fault schedules against
// best-effort and at-least-once runs, so the schedule itself is data —
// one directive per line, '#' comments, times with unit suffixes
// (ns/us/ms/s/m):
//
//   crash <daemon> at <time> for <duration>
//   partition <from> -> <to> at <time> for <duration>
//   overflow <daemon> at <time> count <n>
//   restart <daemon> at <time>
//   storecrash <point> after <n>
//   ioslow <node|*> at <time> for <duration> factor <f> [op <class>] [ramp]
//
// `crash` opens a daemon-wide outage window (every route of <daemon>
// refuses new arrivals); `partition` scopes the window to the one route
// toward <to>; `overflow` forces the next <n> enqueues on each route to
// be rejected as if the queue were full (burst-loss injection without
// reconfiguring capacities); `restart` truncates any outage window in
// progress at <time> (an operator bouncing the daemon early).
// `storecrash` targets the durable store instead of a daemon: it kills
// the "process" at the <n>-th occurrence of the named store operation
// (the one point is `commit`, a store::Log group commit), leaving a
// torn write behind — consumed by store::FaultInjector, through
// store::Store::faults() or rollup::RollupEngine::arm_from_plan, on a
// log the caller opens, not by the transport; exp::run_experiment
// rejects it.  It is
// occurrence-counted, not timed: the store runs on real threads off the
// virtual timeline.
// `ioslow` perturbs the simulated file system instead of the transport:
// ops issued from <node> (a cluster node name, or `*` for every node)
// during the window see service times multiplied by <f> — flat, or
// ramping linearly from 1 to <f> with the `ramp` suffix (Fig. 8's
// degrading write phase).  The optional `op` clause (read | write |
// meta | any, default any) scopes the slowdown to one operation class.
// Consumed by exp::run_experiment, which translates it into simfs
// variability incidents; transports and daemons never see it.
//
// Parsing is pure data — applying a plan to live daemons lives in
// ldms/fault_inject.hpp so this header stays free of transport types.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace dlc::relia {

enum class FaultKind : std::uint8_t {
  kCrash = 0,
  kPartition = 1,
  kOverflow = 2,
  kRestart = 3,
  kStoreCrash = 4,
  kIoSlow = 5,
};

std::string_view fault_kind_name(FaultKind k);

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  /// The daemon the fault applies to (the *from* side for partitions;
  /// the crash-point name, `commit`, for storecrash; the node name, or
  /// "*", for ioslow).
  std::string daemon;
  /// Partition target (empty otherwise).
  std::string upstream;
  SimTime at = 0;
  SimDuration duration = 0;
  /// Forced enqueue rejections (overflow) or the 1-based occurrence the
  /// store crash fires at (storecrash).
  std::uint64_t count = 0;
  /// ioslow: service-time multiplier at the window peak (> 1 slows).
  double factor = 1.0;
  /// ioslow: operation class the slowdown applies to
  /// ("read" | "write" | "meta" | "any").
  std::string op = "any";
  /// ioslow: ramp linearly from 1 to `factor` across the window instead
  /// of applying `factor` flat.
  bool ramp = false;
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  /// Unparsable lines ("<line-no>: <text>"), reported so a typo'd plan
  /// fails loudly instead of silently injecting nothing.
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
  bool empty() const { return events.empty(); }
};

/// Parses a plan; never throws.  Events keep source order.
FaultPlan parse_fault_plan(std::string_view text);

/// Renders an event back to its DSL line (round-trips through parse).
std::string to_string(const FaultEvent& event);

/// Parses "250ms" / "3s" / "1.5s" / "2m" into virtual nanoseconds;
/// returns false on malformed input.  Exposed for tests.
bool parse_sim_duration(std::string_view text, SimDuration& out);

}  // namespace dlc::relia
