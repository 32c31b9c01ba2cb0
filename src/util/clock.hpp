// Monotonic real-clock reads for the pipeline's own cost metrics.
//
// Layers time themselves (commit, seal, fold, query, evaluation) on the
// host's steady clock, never on the simulated timeline of util/time.hpp.
// Kept in dlc::util rather than dlc so it cannot collide with a caller's
// own unqualified now_ns().
#pragma once

#include <chrono>
#include <cstdint>

namespace dlc::util {

/// Nanoseconds since an arbitrary fixed point of std::chrono::steady_clock;
/// only differences are meaningful.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace dlc::util
