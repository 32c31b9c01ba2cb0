// Configuration of the Darshan-LDMS Connector.  ConnectorConfig is the
// only configuration surface: callers set its fields directly, usually
// through exp::ExperimentSpec::connector.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "darshan/module.hpp"
#include "json/writer.hpp"
#include "relia/delivery.hpp"
#include "relia/spool.hpp"
#include "util/time.hpp"
#include "wire/batcher.hpp"

namespace dlc::core {

/// What goes on the wire for each published event.
enum class WireFormat : std::uint8_t {
  /// One JSON message per event (the paper's connector).
  kJson = 0,
  /// One binary frame per event (compact codec, no coalescing).
  kBinary = 1,
  /// Events coalesced into multi-event binary frames by a per-daemon
  /// StreamBatcher; daemons forward O(batches) instead of O(events).
  kBinaryBatched = 2,
};

/// How the connector renders the JSON payload (ignored by the binary wire
/// formats, which bypass JSON entirely).
enum class FormatMode : std::uint8_t {
  /// Full JSON message via snprintf number formatting — what the paper's
  /// connector shipped, and the cause of its HMMER overhead.
  kSnprintfJson = 0,
  /// Full JSON via the fast two-digit-table formatter (our improvement).
  kFastJson = 1,
  /// No formatting at all: a fixed placeholder payload is published.  The
  /// paper's ablation — "only LDMS Streams API is enabled and the
  /// Darshan-LDMS Connector send function is called" — measured 0.37%.
  kNone = 2,
};

/// Per-message virtual-time costs charged to the issuing rank.  Defaults
/// are calibrated against Table II (see DESIGN.md §4): the paper's own
/// numbers imply several hundred microseconds of formatting cost per event
/// on Voltrino's Haswell nodes, and ~1 us for the bare publish call.
struct CostModel {
  /// Fixed cost of building the JSON message (int->string conversions,
  /// buffer handling).  Zero when FormatMode::kNone.  The default is
  /// calibrated to Table IIc: the paper's HMMER deltas divided by its
  /// message counts imply ~0.7-1.8 ms per formatted event on Voltrino.
  SimDuration format_base = 1800 * kMicrosecond;
  /// Additional formatting cost per payload byte.
  SimDuration format_per_byte = 40;  // 40 ns/byte
  /// Fast formatter cost relative to snprintf (kFastJson multiplies the
  /// format terms by this factor).
  double fast_format_factor = 0.12;
  /// Binary wire-encoder cost relative to snprintf JSON: varint stores
  /// replace every int->string conversion, so encoding is cheaper per
  /// event than even the fast JSON path (calibrated from bench_wire).
  double binary_format_factor = 0.05;
  /// Cost of the ldms_stream_publish call itself (always paid when the
  /// event is published, even under kNone).
  SimDuration publish_cost = 1 * kMicrosecond;
  /// Cost of deciding to skip an event (sampling path).
  SimDuration skip_cost = 50;  // 50 ns
};

struct ConnectorConfig {
  /// Stream tag; "the Darshan-LDMS Connector currently uses a single
  /// unique LDMS Stream tag for this data source".
  std::string stream_tag = "darshanConnector";
  FormatMode format = FormatMode::kSnprintfJson;
  /// On-wire payload encoding.  kJson preserves the paper's behaviour;
  /// the binary formats use the src/wire codec (and, for kBinaryBatched,
  /// per-daemon StreamBatchers configured by `batch`).
  WireFormat wire_format = WireFormat::kJson;
  wire::BatchConfig batch;
  /// Transport delivery guarantee for connector traffic.  kBestEffort is
  /// the paper's LDMS Streams (losses counted, never recovered);
  /// kAtLeastOnce turns on per-route spooling + redelivery and seq-based
  /// dedup at the decoder.
  relia::DeliveryMode delivery = relia::DeliveryMode::kBestEffort;
  /// Spool sizing for kAtLeastOnce routes.
  relia::SpoolConfig spool;
  /// Publish every n-th event per rank (1 = every event).  This is the
  /// paper's proposed future-work mitigation, implemented here.
  /// `open` and `close` events are always published: they carry the MET
  /// metadata and delimit cnt epochs.
  std::uint64_t sample_every_n = 1;
  /// Minimum virtual time between published data events per rank
  /// (0 disables).  A complementary mitigation to every-nth sampling for
  /// bursty I/O: bounds the message *rate* instead of the ratio.
  /// `open`/`close` events always pass (MET metadata, cnt epochs).
  SimDuration min_publish_interval = 0;
  /// Modules whose events are published; empty = all.  Mirrors darshan's
  /// per-module enable/disable ("which can be enabled or disabled as
  /// desired").
  std::vector<darshan::Module> module_filter;
  /// Worker threads for the storage-side ingest executor (decoder ->
  /// DsosCluster), clamped to the shard count.  0 = the executor inserts
  /// inline on the decode thread.
  std::size_t ingest_threads = 0;
  /// Pipeline-trace sampling: every n-th published event carries an
  /// obs::TraceContext through the whole pipeline (0 disables tracing,
  /// 1 traces every event; default 64).
  /// Traces ride the existing messages — there is no extra traffic, and
  /// with 0 the wire bytes are identical to a build without tracing.
  std::uint64_t trace_sample_n = 64;
  /// Hot-path tuning knobs (DESIGN.md section 9).  Plain strings here —
  /// core does not apply them; whoever builds the pipeline translates
  /// them via util/cpu.hpp, and exp::run_experiment rejects a value it
  /// cannot apply.
  /// Shard-writer placement: "none" (default),
  /// "auto" (spread writers across the affinity mask), or an explicit
  /// CPU list "0,2,4" (writer w pins to list[w % size]).
  std::string pin = "none";
  /// Binary decode fast path: "auto"/"on"
  /// (default) stream wire frames straight into ingest via
  /// wire::FrameCursor; "off" keeps the validated decode_frame path.
  /// Rows are byte-identical either way.
  std::string fastpath = "auto";
  /// Storage-policy / rollup configuration.  Empty = rollups disabled;
  /// "default" = the built-in Fig. 5-9 policy set; otherwise a policy
  /// DSL string (see src/rollup/policy.hpp).  Plain string here — core
  /// does not link the rollup engine; whoever mounts a
  /// rollup::RollupEngine parses it.
  std::string rollup_policies;
  /// Directory for spilled rollup cells.
  /// Empty = rollups stay in memory; non-empty runs the rollup spill
  /// store in tiered mode under this directory.
  std::string rollup_dir;
  /// Has no effect: nothing expires sealed rollup rows.  Kept only
  /// because e2ebench/bench.cpp assigns it.
  std::uint64_t rollup_retention_s = 0;
  /// Online anomaly detection riding the rollup seal path (default
  /// off).  When on, whoever
  /// mounts the rollup engine appends the dedicated source policy and
  /// attaches an anomaly::AnomalyEngine — plain data here, core does
  /// not link the anomaly stage (same pattern as rollup_policies).
  bool anomaly = false;
  /// Anomaly source-policy bucket width, seconds (> 0).
  double anomaly_bucket_s = 10.0;
  /// Straggler leave-one-out z-score threshold (> 0).
  double anomaly_z = 3.0;
  /// Minimum nodes for a cross-node distribution (>= 2).
  std::uint64_t anomaly_min_nodes = 3;
  /// Write-slowdown trend window, sealed buckets (>= 2).
  std::uint64_t anomaly_trend_window = 12;
  /// Relative rise across the trend window that flags a slowdown (> 0).
  double anomaly_trend_rise = 0.5;
  /// Burst threshold: rate vs EWMA multiple (> 1).
  double anomaly_burst_factor = 3.0;
  /// Resolved-alert history retention, entries (>= 1).
  std::uint64_t anomaly_retention = 256;
  /// When false the connector observes events but never publishes
  /// (darshan-only baseline shares the same code path shape).
  bool publish = true;
  /// Charge the CostModel to virtual time (disable to measure pure
  /// pipeline behaviour).
  bool charge_costs = true;
  CostModel costs;
};

}  // namespace dlc::core
