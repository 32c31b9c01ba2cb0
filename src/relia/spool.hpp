// Bounded per-route spill spool for unacked stream messages.
//
// At-least-once routes retain messages here whenever the transport cannot
// take them (outage, open circuit breaker, queue overflow) or whenever a
// delivery's ack is lost crossing a partition.  The spool is an in-memory
// ring bounded by message count and payload bytes; when the ring
// overflows, the *oldest* message is evicted first — either spilled to an
// optional file-backed segment (surviving for later redelivery) or, with
// no file configured or a full file, dropped and counted.
//
// Ordering: the file segment always holds strictly older messages than
// the ring (evictions move ring-oldest to file-tail), so pop_front()
// drains file first, then ring, preserving publish order end to end.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "ldms/message.hpp"
#include "relia/fileseg.hpp"
#include "util/thread_annotations.hpp"

namespace dlc::relia {

struct SpoolConfig {
  /// Ring bound on retained message count.
  std::size_t max_msgs = 65536;
  /// Ring bound on retained payload bytes (0 => unlimited).
  std::size_t max_bytes = 16 * 1024 * 1024;
  /// When non-empty, ring evictions spill to this file instead of being
  /// dropped (max_msgs and max_bytes size the ring; the segment
  /// is the disk overflow valve).
  std::string file_path;
  /// Cap on the file segment (0 => unlimited).  Evictions past the cap
  /// are dropped and counted.
  std::size_t file_max_bytes = 256 * 1024 * 1024;
};

class MessageSpool {
 public:
  explicit MessageSpool(SpoolConfig config = {});

  /// Retains one message; may evict the oldest ring entry to the file
  /// segment or drop it entirely when everything is full.
  void append(ldms::StreamMessage msg);

  /// Oldest retained message (file segment before ring), or nullopt when
  /// empty.  A message popped for redelivery is no longer retained — the
  /// caller re-appends if the redelivery attempt fails too.
  std::optional<ldms::StreamMessage> pop_front();

  /// Drops everything retained (give-up path; adds to evicted()).
  void clear();

  bool empty() const {
    const util::LockGuard lock(m_);
    return size_locked() == 0;
  }
  std::size_t size() const {
    const util::LockGuard lock(m_);
    return size_locked();
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
  /// Messages that overflowed the ring into the file segment.
  std::uint64_t spilled() const {
    const util::LockGuard lock(m_);
    return spilled_;
  }

  const SpoolConfig& config() const { return config_; }

 private:
  std::size_t size_locked() const DLC_REQUIRES(m_) {
    return ring_.size() + file_msgs_;
  }
  void evict_oldest() DLC_REQUIRES(m_);
  bool spill_to_file(const ldms::StreamMessage& msg) DLC_REQUIRES(m_);
  std::optional<ldms::StreamMessage> read_from_file() DLC_REQUIRES(m_);

  // The spool is shared between the publish path (append on overflow) and
  // the reconnect prober's redelivery drain; one leaf mutex serializes
  // both (including the fstream, which is itself stateful).
  mutable util::Mutex m_{"MessageSpool"};

  SpoolConfig config_;  // immutable after construction
  std::deque<ldms::StreamMessage> ring_ DLC_GUARDED_BY(m_);
  std::size_t ring_bytes_ DLC_GUARDED_BY(m_) = 0;

  /// Lazily-opened spill segment (relia/fileseg.hpp): appended at the
  /// end, read sequentially, recycled once fully drained.
  FileSegment file_ DLC_GUARDED_BY(m_);
  std::size_t file_msgs_ DLC_GUARDED_BY(m_) = 0;

  std::uint64_t appended_ DLC_GUARDED_BY(m_) = 0;
  std::uint64_t evicted_ DLC_GUARDED_BY(m_) = 0;
  std::uint64_t spilled_ DLC_GUARDED_BY(m_) = 0;
};

}  // namespace dlc::relia
