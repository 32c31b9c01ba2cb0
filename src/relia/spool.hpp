// Bounded per-route spool for unacked stream messages.
//
// At-least-once routes retain messages here whenever the transport cannot
// take them (outage, open circuit breaker, queue overflow) or whenever a
// delivery's ack is lost crossing a partition.  The spool is an in-memory
// ring bounded by message count and payload bytes; when the ring
// overflows, the *oldest* message is evicted, dropped and counted.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "ldms/message.hpp"
#include "util/thread_annotations.hpp"

namespace dlc::relia {

struct SpoolConfig {
  /// Ring bound on retained message count.
  std::size_t max_msgs = 65536;
  /// Ring bound on retained payload bytes (0 => unlimited).
  std::size_t max_bytes = 16 * 1024 * 1024;
};

class MessageSpool {
 public:
  explicit MessageSpool(SpoolConfig config = {});

  /// Retains one message; may evict (drop and count) the oldest ring
  /// entries to make room.
  void append(ldms::StreamMessage msg);

  /// Oldest retained message, or nullopt when empty.  A message popped
  /// for redelivery is no longer retained — the caller re-appends if the
  /// redelivery attempt fails too.
  std::optional<ldms::StreamMessage> pop_front();

  /// Drops everything retained (give-up path; adds to evicted()).
  void clear();

  bool empty() const {
    const util::LockGuard lock(m_);
    return ring_.empty();
  }
  std::size_t size() const {
    const util::LockGuard lock(m_);
    return ring_.size();
  }
  std::size_t ring_bytes() const {
    const util::LockGuard lock(m_);
    return ring_bytes_;
  }

  // --- accounting -------------------------------------------------------
  std::uint64_t appended() const {
    const util::LockGuard lock(m_);
    return appended_;
  }
  /// Messages evicted with nowhere to go — at-least-once's honest loss.
  std::uint64_t evicted() const {
    const util::LockGuard lock(m_);
    return evicted_;
  }

  const SpoolConfig& config() const { return config_; }

 private:
  // The spool is shared between the publish path (append on overflow) and
  // the reconnect prober's redelivery drain; one leaf mutex serializes
  // both.
  mutable util::Mutex m_{"MessageSpool"};

  SpoolConfig config_;  // immutable after construction
  std::deque<ldms::StreamMessage> ring_ DLC_GUARDED_BY(m_);
  std::size_t ring_bytes_ DLC_GUARDED_BY(m_) = 0;

  std::uint64_t appended_ DLC_GUARDED_BY(m_) = 0;
  std::uint64_t evicted_ DLC_GUARDED_BY(m_) = 0;
};

}  // namespace dlc::relia
