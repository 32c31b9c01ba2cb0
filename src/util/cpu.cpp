#include "util/cpu.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace dlc::util {

namespace {

#if defined(__linux__)
std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

/// cgroup v2: /sys/fs/cgroup/cpu.max is "<quota> <period>" with quota
/// "max" for unlimited.  cgroup v1: quota/period live in separate files
/// under cpu/, quota -1 for unlimited.  Returns CPUs (quota / period)
/// rounded down, 0 when unlimited or unreadable.
std::size_t cgroup_quota_cpus() {
  {
    std::ifstream v2("/sys/fs/cgroup/cpu.max");
    std::string quota;
    long long period = 0;
    if (v2 >> quota >> period) {
      if (quota == "max" || period <= 0) return 0;
      const long long q = std::stoll(quota);
      if (q <= 0) return 0;
      return static_cast<std::size_t>(q / period);
    }
  }
  std::ifstream v1_quota("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream v1_period("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  long long quota = -1, period = 0;
  if ((v1_quota >> quota) && (v1_period >> period)) {
    if (quota <= 0 || period <= 0) return 0;
    return static_cast<std::size_t>(quota / period);
  }
  return 0;
}
#else
std::size_t affinity_cpus() { return 0; }
std::size_t cgroup_quota_cpus() { return 0; }
#endif

}  // namespace

CpuBudget cpu_budget() {
  CpuBudget b;
  b.hardware_threads = std::thread::hardware_concurrency();
  b.affinity = affinity_cpus();
  // A cgroup quota only *limits*: quota 0 means "no limit found", and a
  // fractional quota (< 1 CPU) clamps to 1 below.
  b.quota_cpus = cgroup_quota_cpus();

  std::size_t effective = 0;
  if (b.hardware_threads > 0) {
    effective = b.hardware_threads;
    b.source = "hardware";
  }
  if (b.affinity > 0 && (effective == 0 || b.affinity < effective)) {
    effective = b.affinity;
    b.source = "affinity";
  }
  if (b.quota_cpus > 0 && (effective == 0 || b.quota_cpus < effective)) {
    effective = b.quota_cpus;
    b.source = "quota";
  }
  b.effective = std::max<std::size_t>(1, effective);
  return b;
}

std::size_t effective_cpus() { return cpu_budget().effective; }

// --------------------------------------------------------- pinning ----

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
#endif
  return cpus;
}

bool pin_current_thread(int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

int current_cpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

bool parse_pin_policy(std::string_view spec, PinPolicy& out) {
  if (spec == "none") {
    out = PinPolicy{};
    return true;
  }
  if (spec == "auto") {
    out = PinPolicy{PinPolicy::Mode::kAuto, {}};
    return true;
  }
  if (spec.empty()) return false;
  PinPolicy parsed{PinPolicy::Mode::kList, {}};
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string_view item = spec.substr(pos, comma - pos);
    int cpu = -1;
    const auto [ptr, ec] =
        std::from_chars(item.data(), item.data() + item.size(), cpu);
    if (ec != std::errc() || ptr != item.data() + item.size() || cpu < 0 ||
        cpu >= 4096) {
      return false;
    }
    parsed.cpus.push_back(cpu);
    pos = comma + 1;
  }
  out = std::move(parsed);
  return true;
}

std::vector<int> resolve_pin_cpus(const PinPolicy& policy) {
  switch (policy.mode) {
    case PinPolicy::Mode::kNone:
      return {};
    case PinPolicy::Mode::kAuto:
      return allowed_cpus();
    case PinPolicy::Mode::kList:
      return policy.cpus;
  }
  return {};
}

}  // namespace dlc::util
