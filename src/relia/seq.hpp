// Sequence accounting for at-least-once stream delivery.
//
// Every LdmsDaemon::publish stamps a per-(producer, tag) monotonic
// sequence number starting at 1 (0 means "unsequenced" — raw bus traffic
// from code that never went through publish).  The tracker sits on the
// decode side and classifies each arrival:
//
//   * accept     — first sighting of this (producer, seq),
//   * duplicate  — seen before (redelivery after a lost ack),
//
// while counting reorders (a first sighting below the producer's
// high-water mark: redelivered stragglers land after newer traffic) and
// estimating loss (sequence gaps still open).  The per-producer state is
// exact, not windowed: a contiguous frontier plus the sparse set of
// out-of-order arrivals above it, so the set stays small whenever the
// stream is mostly ordered.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

namespace dlc::relia {

class SequenceTracker {
 public:
  enum class Observe : std::uint8_t { kAccept = 0, kDuplicate = 1 };

  struct ProducerStats {
    /// Messages observed, duplicates included.
    std::uint64_t received = 0;
    /// Distinct sequence numbers observed.
    std::uint64_t unique = 0;
    std::uint64_t duplicates = 0;
    /// First sightings that arrived below the high-water mark.
    std::uint64_t reordered = 0;
    /// Highest sequence number observed.
    std::uint64_t max_seq = 0;
    /// Open sequence gaps: messages published (per max_seq) but never
    /// seen; transient while reordered messages are still in flight.
    /// Blind to loss after the last arrival — final loss needs the
    /// producer's own count (LdmsDaemon::last_seq).
    std::uint64_t lost() const { return max_seq - unique; }
  };

  /// Classifies one arrival.  seq 0 is unsequenced traffic: always
  /// accepted and excluded from the per-producer accounting.
  Observe observe(std::string_view producer, std::uint64_t seq);

  /// Per-producer accounting; nullptr for unknown producers.  The pointer
  /// stays valid for the tracker's lifetime (std::map nodes are stable),
  /// but reading it concurrently with observe() can tear — snapshot-read
  /// only from a quiesced stream (end-of-run accounting), as the pipeline
  /// and tests do.
  const ProducerStats* stats(std::string_view producer) const;

  /// Aggregate over all producers.
  ProducerStats total() const;

  /// Producer names seen, sorted (stable iteration for reports).
  std::vector<std::string> producers() const;

  std::uint64_t unsequenced() const {
    const util::LockGuard lock(m_);
    return unsequenced_;
  }

 private:
  struct State {
    /// All seqs in [1, next_contig) have been seen.
    std::uint64_t next_contig = 1;
    /// Out-of-order arrivals at or above next_contig.
    std::set<std::uint64_t> pending;
    ProducerStats stats;
  };

  // Leaf mutex: observe() runs on the decode thread while reporters poll
  // totals; nothing is called out to while it is held.
  mutable util::Mutex m_{"SequenceTracker"};

  // std::map (not unordered) so producers() is sorted for free and
  // find() works with string_view keys via transparent comparison.
  std::map<std::string, State, std::less<>> states_ DLC_GUARDED_BY(m_);
  std::uint64_t unsequenced_ DLC_GUARDED_BY(m_) = 0;
  /// Running sum of lost() over all producers, maintained incrementally
  /// so each observe() can publish the dlc.relia.seq_lost gauge without
  /// re-walking states_.
  std::int64_t lost_running_ DLC_GUARDED_BY(m_) = 0;
};

}  // namespace dlc::relia
