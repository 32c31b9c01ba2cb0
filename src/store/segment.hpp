// Immutable sealed segments: the cold tier of the durable store.
//
// A segment is one shard's run of contiguous-sequence rows, written
// once at seal time and never modified.  The header describes the data
// block without touching it: seq range, time range, the full schema
// definitions and per-attribute zone maps.  Recovery reads the header
// to order and validate segments, then loads every row back into the
// Container.  No program reads the zones or created_unix_s back; they
// stay because golden segment.bin pins the format.
//
// Crash safety is write-to-tmp-then-rename: a seal that dies mid-write
// leaves only a `.seg.tmp` file, which recovery deletes (the WAL still
// holds every row).  A header may list segment ids it `replaces`; seals
// write none, but recovery still drops any segment a live header names,
// because older builds compacted by writing such a header.
//
// Header and data block carry independent CRC-32s: the header is read
// (and verified) on every open, the data CRC is verified whenever rows
// are actually decoded — a bit-flipped block quarantines the file
// instead of resurrecting garbage rows.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dsos/container.hpp"
#include "dsos/schema.hpp"

namespace dlc::store {

/// Min/max of one indexed attribute over the segment's rows.
struct SegmentZone {
  std::uint64_t schema_idx = 0;  // into SegmentMeta::schemas
  std::uint64_t attr_id = 0;
  dsos::Value min;
  dsos::Value max;
};

struct SegmentMeta {
  std::string path;
  std::uint64_t id = 0;
  std::uint64_t shard = 0;
  std::uint64_t first_seq = 0;
  std::uint64_t last_seq = 0;
  std::uint64_t row_count = 0;
  /// Min/max over the rows' first kTimestamp attribute (epoch seconds);
  /// 0/0 when no schema in the segment has one.
  double min_time = 0.0;
  double max_time = 0.0;
  std::uint64_t created_unix_s = 0;
  /// Segment ids this file supersedes (empty for seals).  Recovery
  /// drops any listed id that still exists on disk.
  std::vector<std::uint64_t> replaces;
  std::vector<dsos::SchemaPtr> schemas;
  std::vector<SegmentZone> zones;
  std::uint64_t file_bytes = 0;
};

/// Writes `rows` as the segment described by `meta` (caller fills path /
/// id / shard / seq range / created_unix_s / replaces; row-derived
/// fields — row_count, time range, schemas, zones, file_bytes — are
/// computed here).  Write-to-tmp-then-rename.  `fault_cap_bytes` is the
/// crash seam: non-zero writes only that many bytes of the tmp file and
/// reports failure without renaming.
bool write_segment(SegmentMeta* meta,
                   const std::vector<const dsos::Object*>& rows,
                   std::size_t fault_cap_bytes = 0);

/// Reads and CRC-verifies the header only; nullopt on a missing,
/// truncated, version-unknown or checksum-corrupt header (callers
/// quarantine).  Also rejects files whose size disagrees with the
/// header+data lengths (truncated data block).
std::optional<SegmentMeta> read_segment_meta(const std::string& path);

/// Decodes the data block (verifying its CRC) into `out`; false on
/// corruption.  Row i of the segment has sequence first_seq + i.
bool read_segment_rows(const SegmentMeta& meta,
                       std::vector<dsos::Object>* out);

}  // namespace dlc::store
