// On-disk format constants for the durable store.
//
// One file kind lives in the store directory (StoreConfig::dir):
//
//   wal-<shard>.log   append-only write-ahead log, FileSegment-framed
//                     records (8-byte LE length + body); each body is a
//                     WAL frame: type byte, CRC-32, payload.  Data
//                     frames carry one group commit; schema frames carry
//                     a schema dictionary entry.
//
// The byte layout is a frozen format, pinned by the golden fixture
// tests/golden/wal.bin: a writer or reader that drifts from it fails the
// build's tests rather than a recovery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dlc::store {

/// WAL frame types.
inline constexpr std::uint8_t kWalFrameData = 0;
inline constexpr std::uint8_t kWalFrameSchema = 1;

/// Store directory entries.
std::string wal_file_name(std::size_t shard);

/// Durability tier (StoreConfig::mode, chosen by whoever mounts the
/// store).
enum class StoreMode : std::uint8_t {
  kMemory = 0,  // paper behaviour: nothing survives the process
  kTiered = 1,  // per-shard write-ahead log, replayed on open
};

std::string_view store_mode_name(StoreMode m);

}  // namespace dlc::store
