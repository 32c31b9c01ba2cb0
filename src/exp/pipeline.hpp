// Experiment pipeline: wires one job through the full monitoring stack —
//   workload ranks -> darshan runtime -> connector -> node LDMS daemons ->
//   L1 aggregator (head node) -> L2 aggregator (Shirley) -> decoder/DSOS
// — mirroring the paper's Voltrino/Shirley deployment.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/correlate.hpp"
#include "anomaly/engine.hpp"
#include "core/connector.hpp"
#include "core/decoder.hpp"
#include "darshan/log.hpp"
#include "darshan/runtime.hpp"
#include "dsos/cluster.hpp"
#include "ldms/store.hpp"
#include "obs/spans.hpp"
#include "relia/fault.hpp"
#include "rollup/engine.hpp"
#include "simfs/lustre.hpp"
#include "simfs/nfs.hpp"
#include "simhpc/cluster.hpp"
#include "simhpc/job.hpp"
#include "workloads/workload.hpp"

namespace dlc::exp {

struct ExperimentSpec {
  // --- workload ---------------------------------------------------------
  workloads::WorkloadFactory workload;
  std::string exe = "/projects/apps/bin/app";
  std::size_t node_count = 1;
  std::size_t ranks_per_node = 1;
  std::uint64_t job_id = 1;
  std::uint64_t seed = 1;

  // --- file system ------------------------------------------------------
  simfs::FsKind fs = simfs::FsKind::kNfs;
  simfs::NfsConfig nfs;
  simfs::LustreConfig lustre;
  simfs::VariabilityConfig variability;
  /// Campaign epoch: seeds the FS state (the "ran 1-2 weeks earlier"
  /// effect).  Runs with different epoch seeds see different FS weather.
  std::uint64_t epoch_seed = 1000;
  std::vector<simfs::Incident> incidents;

  // --- monitoring -------------------------------------------------------
  /// false => Darshan-only baseline (instrumentation without connector).
  bool connector_enabled = true;
  core::ConnectorConfig connector;
  darshan::RuntimeConfig darshan;
  /// Decode messages into DSOS (figures) vs count-only (overhead tables).
  bool decode_to_dsos = false;
  std::size_t dsos_shards = 4;
  /// When set (and decode_to_dsos), events are ingested into this shared
  /// database instead of a per-run one — the multi-job view the paper's
  /// figures query.
  std::shared_ptr<dsos::DsosCluster> shared_dsos;
  /// When set (and decode_to_dsos), this rollup engine observes the event
  /// database — attached before ingest starts, flushed after the drain —
  /// so dashboard panels can be served from rollup cells instead of raw
  /// scans.  Shared across runs alongside shared_dsos for multi-job
  /// campaigns.  When unset, connector.rollup_policies (if non-empty)
  /// creates a per-run engine; see DESIGN.md §8.
  std::shared_ptr<rollup::RollupEngine> shared_rollup;
  /// When set (and decode_to_dsos), this anomaly engine rides the run's
  /// rollup engine (shared or per-run) instead of a per-run one —
  /// multi-job campaigns keep one alert surface.  Per-run rollup
  /// engines get the `anomaly_node` source policy appended
  /// automatically; a shared_rollup must already include it.
  /// Alternatively spec.connector.anomaly builds a per-run engine from
  /// the connector's anomaly_* fields.
  std::shared_ptr<anomaly::AnomalyEngine> shared_anomaly;
  /// Optional live tap: subscribed on the final aggregator alongside the
  /// stores, invoked at each message's virtual arrival time (monitoring
  /// dashboards, alerting examples).
  ldms::SubscriberFn live_subscriber;
  /// Run the system-state metric sampler on every allocated node and
  /// collect the series (for I/O-vs-system correlation analyses).
  bool sample_system_metrics = false;
  /// Run the transport-health sampler (drop/spool/redelivery counters) on
  /// every node daemon and the L1 aggregator, collected like the system
  /// metrics — the dashboard-visible loss accounting.
  bool sample_transport_health = false;
  SimDuration metric_interval = 10 * kSecond;
  ldms::ForwardConfig transport;
  /// Scripted transport faults (crash/partition/overflow/restart) applied
  /// to the daemons by name; see relia/fault.hpp for the DSL.  Connector
  /// delivery mode (spec.connector.delivery) decides whether the faults
  /// lose events (best_effort) or only delay them (at_least_once).
  /// `ioslow` directives slow the simulated file system; a `storecrash`
  /// directive is rejected (std::invalid_argument), since no store here
  /// is armed from the plan.
  relia::FaultPlan fault_plan;

  // --- cluster ----------------------------------------------------------
  simhpc::ClusterConfig cluster{.node_count = 24, .first_node_id = 40,
                                .node_prefix = "nid"};
};

struct RunResult {
  RunResult() = default;
  RunResult(RunResult&&) = default;
  /// Replacing a live result would release `dsos` before `rollups` and
  /// `anomalies` (declaration order), and the old rollup engine detaches
  /// through the freed cluster.  Construct a fresh result instead.
  RunResult& operator=(RunResult&&) = delete;
  RunResult& operator=(const RunResult&) = delete;

  double runtime_s = 0.0;
  std::uint64_t events = 0;    // darshan-instrumented events
  std::uint64_t messages = 0;  // connector messages published
  /// Events carried inside those messages (== messages for the per-event
  /// wire formats; >= messages under binary batching).
  std::uint64_t events_published = 0;
  /// On-wire payload bytes handed to ldms_stream_publish.
  std::uint64_t bytes_published = 0;
  double msg_rate = 0.0;       // messages per virtual second
  std::uint64_t dropped = 0;   // transport drops (best-effort losses)
  std::uint64_t stored = 0;    // messages reaching the final store
  double mean_latency_s = 0.0; // publish -> store latency
  /// Payload bytes handed to upstream buses across all hops (redelivery
  /// overhead shows up here).
  std::uint64_t transport_bytes = 0;
  // --- delivery-guarantee accounting (at-least-once) --------------------
  std::uint64_t spooled = 0;       // messages retained for redelivery
  std::uint64_t redelivered = 0;   // spool entries re-enqueued
  std::uint64_t spool_evicted = 0; // spool overflow/abandonment losses
  /// Rows ingested into DSOS (only when decode_to_dsos).
  std::uint64_t decoded_rows = 0;
  /// Messages the decoder dropped as redelivered duplicates.
  std::uint64_t duplicates_dropped = 0;
  /// Connector messages the node daemons stamped but that never reached
  /// the terminal aggregator (tail loss included).
  std::uint64_t seq_lost = 0;
  double charged_s = 0.0;      // virtual time charged by the connector
  /// Populated when decode_to_dsos: the queryable event database.
  std::shared_ptr<dsos::DsosCluster> dsos;
  /// Populated when a rollup engine observed this run (shared_rollup or
  /// connector.rollup_policies): the flushed, queryable rollup engine.
  std::shared_ptr<rollup::RollupEngine> rollups;
  /// Populated when anomaly detection rode this run (shared_anomaly or
  /// connector.anomaly): the live alert surface.  Declared after
  /// `rollups` so it detaches from the rollup engine before the engine
  /// itself is destroyed.
  std::shared_ptr<anomaly::AnomalyEngine> anomalies;
  /// Populated when decode_to_dsos and connector.trace_sample_n > 0: the
  /// finished pipeline traces (metrics + slow-span exemplar ring).
  std::shared_ptr<obs::TraceCollector> traces;
  /// Complete 8-hop spans finished by the collector (== traces->completed()).
  std::uint64_t traces_completed = 0;
  /// The post-run darshan summary log.
  darshan::Log darshan_log;
  /// Populated when sample_system_metrics: one series per metric channel,
  /// timestamps relative to job start (node 0's sampler).
  std::vector<analysis::TimeSeries> system_metrics;
  /// darshan heatmap snapshot: per-rank written/read bytes per time bin
  /// (bin width = darshan config's heatmap_bin).
  std::vector<std::vector<double>> heatmap_write_bytes;
  std::vector<std::vector<double>> heatmap_read_bytes;
};

/// Runs one job end to end and returns its measurements.
RunResult run_experiment(const ExperimentSpec& spec);

}  // namespace dlc::exp
