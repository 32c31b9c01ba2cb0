// Darshan log serialisation: the post-run summary file darshan-runtime
// writes at finalize, and the darshan-util-style reader.
//
// Real darshan writes zlib-compressed logs, and a full-DXT trace
// dominates a big job's log.  This format compresses where that
// redundancy lives, with the wire/varint.hpp primitives and no external
// dependency:
//   magic "DLC2", u64 body size, then the body:
//     job_id, uid, nprocs varints; start/end zigzag; exe string;
//     record count, then per record: module byte, rank zigzag,
//     record_id varint, path string, the counters in for_each_counter
//     order, DXT segment count and segments, dxt_dropped varint.
//   A DXT segment is an op byte, the offset and the start as zigzag
//   deltas from the previous segment's (both are near monotone within a
//   record), then the length and the duration as varints.
// Strings are a varint length plus bytes.  The size and the doubles are
// host order, like the wire frames and the store's files.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "darshan/runtime.hpp"

namespace dlc::darshan {

/// Serialises a finalized log to a binary stream/file.
void write_log(const Log& log, std::ostream& out);
bool write_log_file(const Log& log, const std::string& path);

/// Parses a log previously written by write_log.  Returns nullopt on
/// malformed input: bad magic, truncation, an unknown module or op, a
/// rank outside int, a count the remaining bytes cannot hold, or bytes
/// left over in the body.  No allocation is sized by a number read off
/// the input beyond what the bytes behind it can hold.
std::optional<Log> read_log(std::istream& in);
std::optional<Log> read_log_file(const std::string& path);

/// darshan-parser-style human-readable dump of one log (tests, examples).
std::string log_to_text(const Log& log);

}  // namespace dlc::darshan
