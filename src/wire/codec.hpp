// Compact binary event codec for connector messages.
//
// The paper's connector formats one JSON message per I/O event; Table II
// attributes its runtime overhead largely to that formatting, and the
// paper lists reducing message size as future work.  This codec is that
// future work: a binary *frame* carrying one or more events with
//
//   * varint/zigzag integers (the -1 sentinels cost one byte, not "-1"
//     plus a JSON key),
//   * delta-encoded timestamps (events in a frame are near each other on
//     the virtual timeline, so deltas are small),
//   * a per-frame string-interning table (module/op/producer/file/exe
//     strings are sent once per frame and referenced by id thereafter),
//   * MET→MOD metadata elision mirroring the JSON path: only `open`
//     events carry exe/file; every other event decodes to the same "N/A"
//     placeholders the JSON decoder produces.
//
// Frames are fully self-contained: the interning table never spans
// frames.  LDMS Streams is best-effort — a frame can be dropped in
// transit — so any cross-frame decoder state would corrupt every frame
// after the first loss.  Batching (see batcher.hpp) is what amortises the
// table across many events.
//
// The decoder reconstructs exactly the `dsos::Object` rows (Fig. 3 column
// order) that the JSON path produces, except that `seg_dur` and
// `seg_timestamp` are *more* precise: the JSON writer prints doubles with
// six fractional digits while the frame carries exact nanosecond integers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "darshan/events.hpp"
#include "dsos/schema.hpp"
#include "obs/trace.hpp"
#include "util/time.hpp"
#include "wire/varint.hpp"

namespace dlc::wire {

/// Frame header constants.  Version 2 added the per-encoder frame
/// sequence number to the header (relia at-least-once support: a decoder
/// can spot frame loss/redelivery without the transport envelope).
inline constexpr char kFrameMagic = 'W';
inline constexpr std::uint8_t kFrameVersion = 2;

/// Static per-job metadata shared by every event in a frame; written once
/// in the frame header (the binary analogue of the JSON "MET" fields that
/// never change over a job).
struct EncodeContext {
  std::uint64_t uid = 0;
  std::uint64_t job_id = 0;
  std::string exe;
  /// SimEpoch anchor used to turn virtual end times into epoch seconds.
  double epoch_seconds = 0.0;
};

/// Builds one frame of encoded events.  Reusable: take_frame() returns the
/// finished frame and resets the encoder (header, interning table, delta
/// base) for the next one.
class FrameEncoder {
 public:
  explicit FrameEncoder(EncodeContext ctx);

  /// Appends one event.  `producer` is the publishing daemon's name
  /// (Fig. 3 "ProducerName").
  void add(const darshan::IoEvent& e, std::string_view producer);

  /// Same, with an optional pipeline-trace block (flag bit kHasTrace):
  /// trace id + source-side hop stamps, the first hop absolute and the
  /// rest as deltas (the codec's usual elision style).  `trace` nullptr
  /// or unsampled produces bytes identical to the two-argument overload —
  /// tracing off costs nothing on the wire.
  void add(const darshan::IoEvent& e, std::string_view producer,
           const obs::TraceContext* trace);

  std::size_t event_count() const { return event_count_; }
  /// Size of the frame as encoded so far (header included).
  std::size_t size_bytes() const { return buf_.size(); }
  bool empty() const { return event_count_ == 0; }

  /// Returns the finished frame and resets for the next one.
  std::string take_frame();

  const EncodeContext& context() const { return ctx_; }

  /// Sequence number stamped in the *current* (pending) frame's header;
  /// frames from one encoder are numbered 1, 2, 3, ...
  std::uint64_t frame_seq() const { return frame_seq_; }

 private:
  void begin_frame();
  void put_interned(std::string_view s);

  EncodeContext ctx_;
  std::string buf_;
  std::unordered_map<std::string, std::uint64_t> intern_ids_;
  std::size_t event_count_ = 0;
  SimTime prev_end_ = 0;
  std::uint64_t frame_seq_ = 0;
};

/// Reads the header sequence number of an encoded frame without decoding
/// the events; 0 on malformed input (valid seqs start at 1).
std::uint64_t decode_frame_seq(std::string_view payload);

/// Streaming frame decoder: validates the header on construction, then
/// yields one event per next() call — the row's values in schema order,
/// ready for dsos::make_object, without materialising the whole frame.
///
/// This cursor is the single source of truth for binary decode:
/// decode_frame below is a thin wrapper over it, and the core decoder's
/// binary FAST PATH walks it directly, feeding rows straight into the
/// ingest executor with per-frame (not per-event) trace/metric stamping.
/// Rows start from the Table I defaults (core/schema_darshan.hpp) and the
/// cursor sets, by field id, only the fields an event carries, so both
/// consumers stay schema-true by construction.
///
/// Lifetime: the cursor borrows `payload`; it must outlive the cursor.
class FrameCursor {
 public:
  explicit FrameCursor(std::string_view payload);

  /// Header parsed and sane (magic, version, job context).
  bool ok() const { return ok_; }
  /// Header sequence number (0 when !ok()).
  std::uint64_t frame_seq() const { return frame_seq_; }

  /// Decodes the next event: replaces `values` with its row in schema
  /// (Table I) order; `trace`, when non-null, receives the event's
  /// pipeline-trace block (an unsampled context, id 0, when the event
  /// carries none).  Returns 1 on an event, 0 at a clean end of frame,
  /// -1 on malformed bytes — the caller must then discard every row
  /// already produced from this frame (bad frames drop whole, exactly
  /// like the JSON path drops a bad message).
  int next(std::vector<dsos::Value>& values, obs::TraceContext* trace);

 private:
  Reader r_;
  std::vector<std::string> table_;
  std::uint64_t frame_seq_ = 0;
  std::uint64_t uid_ = 0;
  std::uint64_t job_id_ = 0;
  double epoch_seconds_ = 0.0;
  std::string exe_;
  SimTime prev_end_ = 0;
  bool ok_ = false;
};

/// Decodes a frame into darshan_data objects, one per event, with the
/// same attribute order and sentinel conventions as the JSON decode path.
/// Returns empty on malformed or truncated input (best-effort transport:
/// a bad frame is dropped whole, like a bad JSON message).
///
/// `traces`, when non-null, receives one obs::TraceContext per decoded
/// object (parallel to the returned vector); events without a trace
/// block yield an unsampled context (id == 0).
std::vector<dsos::Object> decode_frame(
    const dsos::SchemaPtr& schema, std::string_view payload,
    std::vector<obs::TraceContext>* traces = nullptr);

/// True when `payload` starts with a plausible frame header (cheap
/// dispatch check for stores that see mixed traffic).
bool looks_like_frame(std::string_view payload);

}  // namespace dlc::wire
