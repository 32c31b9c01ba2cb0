// Per-record counters, following darshan-runtime's counter design: each
// (module, rank, file-record) accumulates integer counters, floating-point
// timers and access-size histograms that darshan-util later reduces into
// the summary log.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>

#include "darshan/module.hpp"

namespace dlc::darshan {

/// Darshan's canonical access-size histogram bin edges (upper bounds).
/// SIZE_*_0_100, 100_1K, 1K_10K, 10K_100K, 100K_1M, 1M_4M, 4M_10M,
/// 10M_100M, 100M_1G, 1G_PLUS.
constexpr std::size_t kSizeBinCount = 10;
std::size_t size_bin_index(std::uint64_t bytes);
std::string_view size_bin_name(std::size_t bin);

/// Counters for one file record on one rank.
struct RecordCounters {
  // Operation counts.
  std::int64_t opens = 0;
  std::int64_t closes = 0;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t flushes = 0;
  std::int64_t seeks = 0;

  // Byte volumes.
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  // Highest offset byte read/written (darshan's *_MAX_BYTE_*): -1 if none.
  std::int64_t max_byte_read = -1;
  std::int64_t max_byte_written = -1;

  // Number of times access alternated between read and write (RW_SWITCHES).
  std::int64_t rw_switches = 0;

  // Access pattern: consecutive (next offset == previous end) and
  // sequential (next offset > previous end) accesses, per darshan's
  // CONSEC_*/SEQ_* counters.
  std::int64_t consec_reads = 0;
  std::int64_t consec_writes = 0;
  std::int64_t seq_reads = 0;
  std::int64_t seq_writes = 0;

  // Access size histograms.
  std::array<std::int64_t, kSizeBinCount> read_size_bins{};
  std::array<std::int64_t, kSizeBinCount> write_size_bins{};

  // Timers (seconds on the virtual timeline, like darshan's F_* counters).
  double f_open_start = -1.0;
  double f_open_end = -1.0;
  double f_close_end = -1.0;
  double f_read_time = 0.0;
  double f_write_time = 0.0;
  double f_meta_time = 0.0;

  // Fastest/slowest single op (F_MAX_*_TIME analogues).
  double f_max_read_time = 0.0;
  double f_max_write_time = 0.0;

  /// Merges `other` into this record (used for shared-file reduction).
  void merge(const RecordCounters& other);
};

/// Calls `visit` on each counter a darshan log serializes, in log order
/// (a histogram as its ten bins): 25 fields, 43 values.  The value type
/// picks the log encoding — std::int64_t zigzag varint, std::uint64_t
/// varint, double eight raw bytes — so this is the only list of the
/// serialized fields; the log writer, the reader and the tests walk it.
template <typename Counters, typename Visit>
  requires std::same_as<std::remove_const_t<Counters>, RecordCounters>
constexpr void for_each_counter(Counters& c, Visit&& visit) {
  visit(c.opens);
  visit(c.closes);
  visit(c.reads);
  visit(c.writes);
  visit(c.flushes);
  visit(c.seeks);
  visit(c.bytes_read);
  visit(c.bytes_written);
  visit(c.max_byte_read);
  visit(c.max_byte_written);
  visit(c.rw_switches);
  visit(c.consec_reads);
  visit(c.consec_writes);
  visit(c.seq_reads);
  visit(c.seq_writes);
  for (auto& b : c.read_size_bins) visit(b);
  for (auto& b : c.write_size_bins) visit(b);
  visit(c.f_open_start);
  visit(c.f_open_end);
  visit(c.f_close_end);
  visit(c.f_read_time);
  visit(c.f_write_time);
  visit(c.f_meta_time);
  visit(c.f_max_read_time);
  visit(c.f_max_write_time);
}

/// One file record: identity plus counters.
struct Record {
  Module module = Module::kPosix;
  int rank = 0;
  std::uint64_t record_id = 0;
  std::string file_path;
  RecordCounters counters;
};

}  // namespace dlc::darshan
