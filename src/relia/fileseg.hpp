// Append-only file of length-prefixed records.
//
// The durable store's WAL (store/wal.hpp) frames its records with it:
// each record is a fixed 8-byte little-endian length followed by the
// body.  The fixed prefix means the reader never parses a varint across
// a stream boundary, and a torn tail is detectable purely from lengths —
// either fewer than 8 prefix bytes remain, or fewer body bytes than the
// prefix promises.
//
// The file is deliberately dumb: one fstream, an append cursor at the
// end and a read cursor that only moves forward, no locking (the caller,
// the store's per-shard mutex, serializes), and no durability stronger
// than a stream flush (the simulation's crash model is process death,
// not power loss).
//
// append_partial() is the crash-injection seam: it writes a prefix of
// the framed record and stops, producing exactly the torn tail a process
// killed mid-write leaves behind.  FaultPlan store campaigns use it to
// prove recovery truncates such tails (see store/store.hpp).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

namespace dlc::relia {

class FileSegment {
 public:
  enum class ReadStatus : std::uint8_t {
    kOk,    // one record read, cursor advanced
    kEof,   // clean end: the cursor sits exactly on end-of-data
    kTorn,  // partial record at the cursor (or an I/O error)
  };

  FileSegment() = default;
  ~FileSegment() { close(); }

  FileSegment(const FileSegment&) = delete;
  FileSegment& operator=(const FileSegment&) = delete;

  /// Opens `path` read/write, creating it if needed.  Existing content
  /// stays in place with the read cursor at its start; appends always
  /// go to the end.  False on I/O failure.
  bool open(const std::string& path);
  void close();
  bool is_open() const { return open_; }
  const std::string& path() const { return path_; }

  /// Appends one framed record (8-byte LE length + body).  Buffered;
  /// call flush() at the durability point (group commit).
  bool append(std::string_view body);

  /// Crash seam: appends only the first `keep_bytes` of the framed
  /// record (prefix included) and flushes — the torn tail of a process
  /// killed mid-write.  keep_bytes >= frame size degenerates to a full
  /// append.
  bool append_partial(std::string_view body, std::size_t keep_bytes);

  /// Flushes buffered appends to the OS.
  bool flush();

  /// Reads the record at the read cursor; advances only on kOk.
  ReadStatus read_next(std::string& body);

  /// Byte offset of the read cursor (end of the last good record —
  /// recovery truncates here to quarantine a torn tail).
  std::streamoff read_pos() const { return read_pos_; }

  /// Drops every byte past `size` (torn-tail quarantine).  Clamps the
  /// read cursor into range.
  bool truncate_to(std::streamoff size);

  /// Bytes currently in the file (frames included).
  std::size_t bytes() const { return bytes_; }

 private:
  bool reopen_stream();

  std::string path_;
  std::fstream file_;
  bool open_ = false;
  std::size_t bytes_ = 0;
  std::streamoff read_pos_ = 0;
};

}  // namespace dlc::relia
