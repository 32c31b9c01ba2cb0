// Effective CPU budget detection for benchmark gates.
//
// std::thread::hardware_concurrency() reports what the kernel *has*, not
// what this process may *use*: CI containers routinely pin the process to
// a subset of cores (sched_setaffinity) or cap it with a cgroup CPU quota
// while hardware_concurrency still says 64 — or, under some runtimes,
// says 1 on a 4-core allocation.  Perf gates conditioned on the raw value
// therefore either fail on physics or silently run degraded.
//
// cpu_budget() combines the three signals available on Linux —
// hardware_concurrency, the sched_getaffinity CPU mask, and the cgroup
// (v2 `cpu.max`, v1 `cpu.cfs_quota_us`/`cpu.cfs_period_us`) quota — and
// reports the tightest one as `effective`, with `source` naming which
// signal bound it so benchmark JSON artifacts are comparable across
// machines.  On non-Linux hosts only hardware_concurrency contributes.
// Alongside the budget, this header is the home of the hot path's thread
// pinning (DESIGN.md section 9): parse_pin_policy()/resolve_pin_cpus()
// turn ConnectorConfig::pin ("none" | "auto" | "0,2,4") into a
// concrete CPU list drawn from the process affinity mask, and
// pin_current_thread()/current_cpu() apply and report placement so shard
// writers and their rings stay on one socket.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dlc::util {

struct CpuBudget {
  /// std::thread::hardware_concurrency() (0 when the host won't say).
  std::size_t hardware_threads = 0;
  /// CPUs in this process's scheduling affinity mask (0 = unknown).
  std::size_t affinity = 0;
  /// cgroup CPU quota in whole CPUs, rounded down (0 = none/unlimited).
  /// A fractional quota (e.g. 0.5 CPU) rounds to 0 and clamps
  /// `effective` to 1.
  std::size_t quota_cpus = 0;
  /// min over the known signals, at least 1.
  std::size_t effective = 1;
  /// Which signal bound `effective`: "hardware", "affinity", "quota",
  /// or "unknown" when no signal reported anything.
  std::string source = "unknown";
};

/// Probes the signals above.  Never throws; missing/unreadable sources
/// simply do not contribute.
CpuBudget cpu_budget();

/// cpu_budget().effective — CPUs a multi-threaded benchmark can really
/// run on concurrently.
std::size_t effective_cpus();

// --------------------------------------------------------- pinning ----

/// CPUs in this process's affinity mask, ascending.  Empty when the mask
/// is unreadable (non-Linux hosts).
std::vector<int> allowed_cpus();

/// Pins the calling thread to `cpu`.  False when unsupported or refused
/// (CPU outside the cgroup/affinity allowance) — callers degrade to
/// unpinned and report it rather than fail.
bool pin_current_thread(int cpu);

/// CPU the calling thread is executing on right now, -1 when unknown.
int current_cpu();

/// ConnectorConfig::pin policy: kNone (default, no pinning), kAuto (spread
/// workers across allowed_cpus()), kList (explicit CPUs; worker w pins
/// to cpus[w % cpus.size()]).
struct PinPolicy {
  enum class Mode : std::uint8_t { kNone = 0, kAuto = 1, kList = 2 };
  Mode mode = Mode::kNone;
  std::vector<int> cpus;  // kList only
};

/// Parses "none" | "auto" | a comma-separated CPU list ("0,2,4").
/// False (out untouched) on malformed input: empty list, garbage,
/// negative or absurd CPU numbers.
bool parse_pin_policy(std::string_view spec, PinPolicy& out);

/// Concrete per-worker CPU targets for a policy: {} for kNone (and for
/// kAuto when the affinity mask is unreadable), allowed_cpus() for
/// kAuto, the explicit list for kList.
std::vector<int> resolve_pin_cpus(const PinPolicy& policy);

}  // namespace dlc::util
