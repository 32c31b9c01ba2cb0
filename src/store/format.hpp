// On-disk format constants and canonical field lists for the durable
// store.
//
// Two file kinds live in the store directory (StoreConfig::dir):
//
//   wal-<shard>.log   append-only write-ahead log, FileSegment-framed
//                     records (8-byte LE length + body); each body is a
//                     WAL frame: type byte, CRC-32, payload.  Data
//                     frames carry one group commit; schema frames carry
//                     a schema dictionary entry.
//   seg-<shard>-<id>.seg
//                     immutable sealed segment: magic, CRC'd header
//                     (metadata + schema defs + zone maps), CRC'd data
//                     block (wire/objblock encoding).
//
// Both byte layouts are frozen formats, pinned by the golden fixtures in
// tests/golden/ (wal.bin, segment.bin): a writer or reader that drifts
// from them fails the build's tests rather than a recovery.
#pragma once

#include <cstdint>
#include <string_view>

namespace dlc::store {

/// Sealed-segment file magic + version (bumped on layout change; readers
/// quarantine unknown versions instead of guessing).
inline constexpr std::string_view kSegmentMagic = "DSG1";
inline constexpr std::uint8_t kSegmentVersion = 1;

/// WAL frame types.
inline constexpr std::uint8_t kWalFrameData = 0;
inline constexpr std::uint8_t kWalFrameSchema = 1;

/// Store directory entries.
std::string wal_file_name(std::size_t shard);
std::string segment_file_name(std::size_t shard, std::uint64_t id);

/// Durability tier (StoreConfig::mode, chosen by whoever mounts the
/// store).
enum class StoreMode : std::uint8_t {
  kMemory = 0,  // paper behaviour: nothing survives the process
  kWal = 1,     // WAL only: every commit durable, no sealing
  kTiered = 2,  // WAL + sealed segments + compaction + retention
};

std::string_view store_mode_name(StoreMode m);

}  // namespace dlc::store
