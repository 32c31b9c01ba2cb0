// End-to-end pipeline trace context.
//
// A TraceContext follows a single sampled I/O event from Darshan
// interception to the committed DSOS object, recording a virtual-time
// stamp at each of the eight pipeline hops.  It travels two ways:
//   * inside the payload — appended as a `"trace"` member to the JSON
//     envelope, or as an optional per-event block in the wire codec
//     (flag kHasTrace; absolute first hop, deltas after — MET/MOD-style
//     elision, see wire/codec.cpp);
//   * on the ldms::StreamMessage envelope — the transport hops
//     (bus_enqueued, daemon_forwarded, aggregated) are stamped by the
//     daemons, which never look inside payloads.
// The decoder merges both halves and the ingest executor finishes the
// span at commit time (see obs::TraceCollector).
//
// Sampling is 1-in-N at the connector (DARSHAN_LDMS_TRACE_SAMPLE,
// default 64; 0 disables).  An unsampled context has id == 0 and costs
// one branch on the hot path; with tracing off the encoded bytes are
// identical to a build without this subsystem.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace dlc::obs {

/// The eight pipeline stages a sampled event is stamped at, in pipeline
/// order.  kCommitted stays last: kHopCount derives from it.
enum class Hop : std::uint8_t {
  kIntercepted = 0,      // Darshan wrapper sees the I/O call
  kPublished = 1,        // connector hands the payload to ldmsd
  kBusEnqueued = 2,      // node daemon stamps seq + enqueues on the bus
  kDaemonForwarded = 3,  // node daemon -> L1 aggregator delivery
  kAggregated = 4,       // L1 -> L2 aggregator delivery
  kDecoded = 5,          // decoder parsed the payload at L2
  kIngestEnqueued = 6,   // row handed to the ingest executor
  kCommitted = 7,        // object inserted into its DSOS shard
};

inline constexpr std::size_t kHopCount =
    static_cast<std::size_t>(Hop::kCommitted) + 1;

/// Dotted-metric / JSON names for each hop, indexed by Hop; also the
/// per-hop metric suffix (dlc.trace.hop.<name>_ns) and the spans-dump
/// hop label.
inline constexpr std::array<std::string_view, kHopCount> kHopNames = {
    "intercepted",      "published",  "bus_enqueued",    "daemon_forwarded",
    "aggregated",       "decoded",    "ingest_enqueued", "committed",
};
static_assert(std::ranges::none_of(
                  kHopNames, [](std::string_view n) { return n.empty(); }),
              "every Hop needs a name");

/// Sentinel for a hop that has not been stamped yet.
inline constexpr std::int64_t kHopUnset =
    std::numeric_limits<std::int64_t>::min();

constexpr std::array<std::int64_t, kHopCount> unset_hops() {
  std::array<std::int64_t, kHopCount> a{};
  for (auto& v : a) v = kHopUnset;
  return a;
}

struct TraceContext {
  /// Nonzero for sampled events: (job_id << 32) | per-connector counter.
  std::uint64_t id = 0;
  /// Per-hop timestamps in virtual ns since the sim epoch.
  std::array<std::int64_t, kHopCount> hops = unset_hops();
  /// Real (steady-clock) ns anchor taken when the row was handed to the
  /// ingest executor; the worker thread stamps kCommitted as
  /// kIngestEnqueued + real elapsed, because worker threads run off the
  /// virtual timeline.  Not serialized.
  std::uint64_t real_anchor_ns = 0;
  /// When the durable store acknowledged the group commit covering this
  /// row (same clock construction as kCommitted).  Deliberately NOT a
  /// ninth hop: kHopCount is wire format and durability is optional —
  /// kHopUnset means "memory mode / store off".  Not serialized.
  std::int64_t committed_durable = kHopUnset;

  bool sampled() const { return id != 0; }

  void stamp(Hop h, std::int64_t t_ns) {
    hops[static_cast<std::size_t>(h)] = t_ns;
  }
  std::int64_t hop(Hop h) const { return hops[static_cast<std::size_t>(h)]; }
  bool has(Hop h) const { return hop(h) != kHopUnset; }

  /// All eight hops stamped.
  bool complete() const;
  /// Stamped hops are non-decreasing in pipeline order (unset skipped).
  bool monotonic() const;
  /// committed - intercepted; 0 unless both ends are stamped.
  std::int64_t e2e_ns() const;
};

// --- JSON envelope block -------------------------------------------------
//
// The payload-side half of the context is serialized as a trailing
// `"trace"` member of the connector's JSON envelope (and as the wire
// codec's trace block): the trace id, then the source-side hops, each
// keyed by its hop name.  Transport and ingest hops ride the message
// envelope or are stamped downstream.

inline constexpr std::array<std::string_view, 3> kTraceFields = {
    "id", kHopNames[static_cast<std::size_t>(Hop::kIntercepted)],
    kHopNames[static_cast<std::size_t>(Hop::kPublished)]};

/// Appends `,"trace":{...}` before the closing brace of a rendered JSON
/// object.  No-op if `payload_json` does not end in an object.
void append_trace_member(std::string* payload_json, const TraceContext& t);

/// Extracts the trailing `"trace"` member written by append_trace_member;
/// fills id / intercepted / published and returns true on success.
bool parse_trace_member(std::string_view payload_json, TraceContext* out);

}  // namespace dlc::obs
