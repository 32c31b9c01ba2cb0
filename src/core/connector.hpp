// The Darshan-LDMS Connector: the paper's primary contribution.
//
// Hooks darshan-runtime's event path; on every detected I/O event it
// formats the event as a message (Fig. 3 / Table I schema, including the
// absolute timestamp) and publishes it to the LDMS Streams tag on the
// issuing rank's node-local LDMS daemon.  `type` is "MET" for open events
// (which carry the static metadata: exe and file absolute paths) and
// "MOD" otherwise; fields a module does not trace are "N/A" / -1.
//
// Implements the paper's future-work sampling knob (publish every n-th
// event), the formatting ablation modes used in Table IIc, and — going
// past the paper's own future-work list — the src/wire binary codec:
// ConnectorConfig::wire_format selects JSON per-event messages, binary
// per-event frames, or batched multi-event frames (see wire/batcher.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "darshan/events.hpp"
#include "darshan/runtime.hpp"
#include "json/writer.hpp"
#include "ldms/daemon.hpp"
#include "obs/trace.hpp"
#include "util/time.hpp"
#include "wire/batcher.hpp"
#include "wire/codec.hpp"

namespace dlc::core {

/// "json", "binary" or "binary_batched" (bench and test labels).
std::string_view wire_format_name(WireFormat f);

/// Maps a rank to its node-local LDMS daemon.
using DaemonOfRank = std::function<ldms::LdmsDaemon*(int rank)>;

struct ConnectorStats {
  std::uint64_t events_seen = 0;
  /// Stream messages published (frames, under kBinaryBatched).
  std::uint64_t messages_published = 0;
  /// Events carried inside those messages (== messages_published for the
  /// per-event wire formats).
  std::uint64_t events_published = 0;
  std::uint64_t events_sampled_out = 0;
  /// Actual on-wire payload bytes handed to ldms_stream_publish, whatever
  /// the wire format (JSON text, placeholder string, or binary frames).
  std::uint64_t bytes_published = 0;
  /// Total virtual time charged to application ranks.
  SimDuration charged = 0;
  /// Real (wall-clock) nanoseconds spent formatting, for the µbenches.
  std::uint64_t real_format_ns = 0;
};

class DarshanLdmsConnector {
 public:
  /// Attaches to `runtime`'s event hook on construction.
  DarshanLdmsConnector(darshan::Runtime& runtime, DaemonOfRank daemon_of_rank,
                       ConnectorConfig config = {});
  /// Flushes pending batch frames (safety net; prefer an explicit flush()
  /// at job end so delivery happens on the virtual timeline).
  ~DarshanLdmsConnector();

  const ConnectorStats& stats() const { return stats_; }
  const ConnectorConfig& config() const { return config_; }

  /// Formats one event into `writer` (exposed for tests and benches).
  /// `epoch` anchors virtual times to epoch seconds.
  static void format_message(json::Writer& writer, const darshan::IoEvent& e,
                             const darshan::Runtime& runtime,
                             const SimEpoch& epoch);

  /// Builds the wire-codec header context matching what format_message
  /// would emit for the same runtime (exposed for tests and benches).
  static wire::EncodeContext encode_context(const darshan::Runtime& runtime,
                                            const SimEpoch& epoch);

  /// Flushes every pending batch frame (job end / darshan shutdown hook).
  /// No-op for the per-event wire formats.
  void flush();

 private:
  SimDuration on_event(const darshan::IoEvent& e);
  void publish_payload(ldms::LdmsDaemon& daemon, ldms::PayloadFormat format,
                       std::string payload, std::size_t events,
                       const obs::TraceContext* trace = nullptr);
  wire::StreamBatcher& batcher_for(ldms::LdmsDaemon& daemon);

  darshan::Runtime& runtime_;
  DaemonOfRank daemon_of_rank_;
  ConnectorConfig config_;
  ConnectorStats stats_;
  SimEpoch epoch_;
  json::Writer writer_;
  /// Binary wire path (kBinary: one frame per event, encoder reused).
  wire::FrameEncoder encoder_;
  /// kBinaryBatched: one batcher per destination daemon, so each frame
  /// travels exactly one route and frames stay self-contained.
  std::map<ldms::LdmsDaemon*, std::unique_ptr<wire::StreamBatcher>> batchers_;
  /// Per-rank event counters for every-nth sampling.
  std::vector<std::uint64_t> rank_event_counts_;
  /// Published-event counter driving 1-in-N pipeline-trace sampling
  /// (config_.trace_sample_n); also the low half of each trace id.
  std::uint64_t trace_counter_ = 0;
  /// Per-rank last published data-event time (rate limiting); sentinel
  /// means "never" (kept distinct so the first event always passes
  /// without risking signed-overflow arithmetic).
  static constexpr SimTime kNeverPublished =
      std::numeric_limits<SimTime>::min();
  std::vector<SimTime> rank_last_publish_;
};

}  // namespace dlc::core
