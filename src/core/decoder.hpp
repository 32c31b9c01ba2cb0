// Decode path: LDMS Streams subscriber that parses connector messages —
// JSON (flattening the `seg` list into one row per segment, CSV layout of
// Fig. 3) or binary wire frames (one row per encoded event) — and ingests
// the rows into a DSOS cluster.  Both paths produce identical rows; see
// wire/codec.hpp and the round-trip property test.
//
// Delivery accounting: every arrival runs through a relia::SequenceTracker
// keyed on (producer, publish seq), making the historical in-order,
// exactly-once assumption explicit.  Out-of-order arrivals decode fine
// (rows are self-contained; frames never share decoder state), duplicates
// are counted always and *dropped before ingest* only when dedup is
// enabled — which the pipeline does whenever the transport runs
// at-least-once, since redelivery is exactly what creates duplicates.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/schema_darshan.hpp"
#include "dsos/cluster.hpp"
#include "dsos/ingest.hpp"
#include "ldms/daemon.hpp"
#include "ldms/message.hpp"
#include "obs/spans.hpp"
#include "relia/seq.hpp"

namespace dlc::core {

/// Parses one connector JSON message into darshan_data objects (one per
/// `seg` entry) through the json::parse DOM.  Returns empty on malformed
/// input.  The reference decoder that tests and fuzz targets hold
/// decode_message_fast to; DarshanDecoder does not call it.
std::vector<dsos::Object> decode_message(const dsos::SchemaPtr& schema,
                                         const std::string& payload);

/// The JSON decoder DarshanDecoder runs: scans the payload with
/// json::Scanner instead of building a DOM — field values are
/// string_view slices of the payload until the rows are materialised, so
/// `payload` must outlive the call (it does: rows copy what they keep).
/// Returns false on malformed input and on nesting deeper than
/// json::Scanner::kMaxDepth below a member, with `out` then holding
/// partial rows to discard.  When it returns true, `out` is
/// byte-identical to decode_message's rows.
bool decode_message_fast(const dsos::SchemaPtr& schema,
                         std::string_view payload,
                         std::vector<dsos::Object>& out);

/// Renders a decoded object as a Fig. 3 CSV row (no header).
std::string to_csv_row(const dsos::Object& obj);

/// Subscribes to `tag` on `daemon` and ingests decoded rows into
/// `cluster`.  Owns nothing; keep alive while messages flow.
class DarshanDecoder {
 public:
  /// `dedup_redelivered` drops messages whose (producer, seq) was already
  /// ingested — required under at-least-once transport, harmless (but
  /// wrong for unsequenced traffic, hence opt-in) under best-effort.
  /// Decoded rows go through `ingest`, which must target `cluster` and
  /// outlive the decoder; callers own its drain() point.  Without one the
  /// decoder owns a serial (workers = 0) executor that inserts inline.
  /// `traces`, when given, finishes sampled pipeline traces: the decoder
  /// merges the payload half (trace block) with the envelope half
  /// (msg.trace), stamps the decode/ingest hops, and hands the span to
  /// the executor to finish at commit time.  A given `ingest` carries
  /// its own collector (set_trace_collector); the owned one gets
  /// `traces`.
  DarshanDecoder(ldms::LdmsDaemon& daemon, const std::string& tag,
                 dsos::DsosCluster& cluster, bool dedup_redelivered = false,
                 dsos::IngestExecutor* ingest = nullptr,
                 obs::TraceCollector* traces = nullptr);

  /// Toggles the binary fast path (ConnectorConfig::fastpath; default on).
  /// On: wire frames decode through wire::FrameCursor straight into the
  /// submit loop — trusted row construction, per-frame (not per-event)
  /// obs stamping.  Off: the wire::decode_frame wrapper with full
  /// make_object validation.  Rows are byte-identical either way (both
  /// run the same cursor); the toggle exists for A/B measurement and as
  /// an escape hatch.
  void set_binary_fastpath(bool on) { binary_fastpath_ = on; }
  bool binary_fastpath() const { return binary_fastpath_; }

  /// Rows ingested (one per JSON seg entry / binary frame event).
  std::uint64_t decoded() const { return decoded_; }
  std::uint64_t malformed() const { return malformed_; }
  /// Binary frames among the decoded messages.
  std::uint64_t frames_decoded() const { return frames_decoded_; }

  /// Messages dropped as redelivered duplicates (0 unless dedup is on).
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  /// Per-producer loss/reorder/duplicate accounting over every sequenced
  /// arrival (tracked in both modes).
  const relia::SequenceTracker& tracker() const { return tracker_; }

 private:
  void on_message(const ldms::StreamMessage& msg);
  /// Fast path: fills scratch_rows_/scratch_traces_ from a wire frame.
  /// False on malformed input (scratch left empty).
  bool decode_frame_fast(std::string_view payload);

  dsos::SchemaPtr schema_;
  bool dedup_redelivered_;
  bool binary_fastpath_ = true;
  std::unique_ptr<dsos::IngestExecutor> owned_ingest_;  // no `ingest` given
  dsos::IngestExecutor* ingest_;
  obs::TraceCollector* collector_;
  relia::SequenceTracker tracker_;
  std::vector<dsos::Object> scratch_rows_;  // reused fast-path buffer
  std::vector<obs::TraceContext> scratch_traces_;  // parallel, wire frames
  std::uint64_t decoded_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t frames_decoded_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
};

}  // namespace dlc::core
