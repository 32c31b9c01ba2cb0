// Per-shard write-ahead log over relia::FileSegment.
//
// The log is the store's only on-disk form: every committed row of a
// shard stays in its WAL for the life of the store directory, and
// recovery rebuilds the shard by replaying it from the first frame.
//
// Group commit is the atomicity unit: one data frame carries every row
// of one commit, covered by a single CRC-32.  A process killed
// mid-write leaves either a short FileSegment record (length prefix
// promises more bytes than exist) or a full-length record whose CRC
// does not match — replay stops at the first such frame and truncates
// the file there, so a torn group vanishes *entirely*.  That is exactly
// the at-least-once contract: rows are acknowledged only after their
// frame's flush returns, so a vanished group was never acked.
//
// Schema dictionary frames make the WAL self-describing: the writer
// emits one before the first data frame that references a new schema
// name, and replay decodes rows against the dictionary it has built so
// far — recovery needs no out-of-band schema registry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsos/schema.hpp"
#include "relia/fileseg.hpp"

namespace dlc::store {

class WalWriter {
 public:
  /// Opens (creating if missing, keeping existing bytes) for appending.
  /// Run replay_wal() first: it truncates any torn tail, so appends
  /// always start at the end of valid data.
  bool open(const std::string& path);
  void close();
  bool is_open() const { return seg_.is_open(); }

  /// Appends a schema dictionary frame (call once per new schema name,
  /// before the first data frame that references it).
  bool append_schema(const dsos::Schema& schema);

  /// Appends one group-commit data frame and flushes (the durability
  /// point).  `torn_frame_bytes` is the crash seam: non-zero writes only
  /// that many bytes of the framed record and reports failure — the
  /// torn tail of a process killed mid-commit.
  bool append_group(std::uint64_t first_seq,
                    const std::vector<const dsos::Object*>& rows,
                    std::size_t torn_frame_bytes = 0);

  std::size_t bytes() const { return seg_.bytes(); }

 private:
  relia::FileSegment seg_;
};

/// Everything replay recovered from one shard's WAL.
struct WalReplay {
  /// Rows in append order; row i has sequence `first_seq + i`.
  std::vector<dsos::Object> rows;
  std::uint64_t first_seq = 0;  // 0 when no data frames survived
  std::uint64_t last_seq = 0;
  std::uint64_t frames = 0;  // valid data frames replayed
  /// Bytes truncated off the tail (torn final record or CRC-bad frame).
  std::uint64_t torn_bytes = 0;
  /// Schema dictionary, in first-appearance order.
  std::vector<dsos::SchemaPtr> schemas;
};

/// Scans `path` (missing file == empty log), validating frame CRCs and
/// decoding rows.  Stops at the first torn or corrupt frame and
/// truncates the file there so the writer can append cleanly.  False
/// only on I/O errors opening/truncating the file.
bool replay_wal(const std::string& path, WalReplay* out);

}  // namespace dlc::store
