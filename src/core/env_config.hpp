// Environment-variable configuration of the connector.
//
// The real Darshan-LDMS connector is switched on and tuned through
// environment variables at job launch (the paper's deployment sets
// LD_PRELOAD plus connector env vars).  This mirrors that interface:
//
//   DARSHAN_LDMS_ENABLE      unset/0 => connector off
//   DARSHAN_LDMS_STREAM      stream tag (default "darshanConnector")
//   DARSHAN_LDMS_FORMAT      snprintf | fast | none
//   DARSHAN_LDMS_WIRE_FORMAT json | binary | binary_batched
//   DARSHAN_LDMS_BATCH_EVENTS    events per batch frame (>= 1)
//   DARSHAN_LDMS_BATCH_BYTES     frame size flush threshold (>= 1)
//   DARSHAN_LDMS_BATCH_DELAY_US  staleness flush threshold (0 disables)
//   DARSHAN_LDMS_SAMPLE_N    publish every n-th event (>= 1)
//   DARSHAN_LDMS_MIN_INTERVAL_US  per-rank publish rate limit
//   DARSHAN_LDMS_MODULES     comma list, e.g. "POSIX,MPIIO" (empty = all)
//   DARSHAN_LDMS_DELIVERY    best_effort | at_least_once
//   DARSHAN_LDMS_SPOOL_MSGS  at-least-once spool bound, messages (>= 1)
//   DARSHAN_LDMS_SPOOL_BYTES at-least-once spool bound, payload bytes
//                            (0 = unlimited)
//   DARSHAN_LDMS_INGEST_THREADS  storage-side ingest worker threads
//                            (0 = serial insertion, the default; capped
//                            at 1024 — larger values are rejected)
//   DARSHAN_LDMS_TRACE_SAMPLE    pipeline-trace sampling: every n-th
//                            published event carries an end-to-end trace
//                            (0 = tracing off, 1 = every event;
//                            default 64)
//   DARSHAN_LDMS_ROLLUP_POLICIES  storage-policy DSL (see
//                            src/rollup/policy.hpp); "default" = the
//                            built-in Fig. 5-9 set; unset = rollups off
//   DARSHAN_LDMS_ROLLUP_DIR  directory for spilled rollup cells
//                            (unset = rollups stay in memory)
//   DARSHAN_LDMS_ROLLUP_RETENTION  rollup spill retention, seconds
//                            (0 = keep forever)
//   DARSHAN_LDMS_ANOMALY     unset/0 => online anomaly detection off;
//                            anything else enables the streaming
//                            detectors on the rollup seal path
//   DARSHAN_LDMS_ANOMALY_BUCKET  anomaly source-policy bucket width,
//                            seconds (> 0; default 10)
//   DARSHAN_LDMS_ANOMALY_Z   straggler z-score threshold (> 0;
//                            default 3)
//   DARSHAN_LDMS_ANOMALY_MIN_NODES  minimum nodes for the cross-node
//                            scan (>= 2; default 3)
//   DARSHAN_LDMS_ANOMALY_TREND_WINDOW  slowdown trend window, buckets
//                            (>= 2; default 12)
//   DARSHAN_LDMS_ANOMALY_TREND_RISE  relative rise across the window
//                            that flags a slowdown (> 0; default 0.5)
//   DARSHAN_LDMS_ANOMALY_BURST  burst threshold, rate vs EWMA multiple
//                            (> 1; default 3)
//   DARSHAN_LDMS_ANOMALY_RETENTION  resolved-alert history bound
//                            (>= 1; default 256)
//   DARSHAN_LDMS_PIN         shard-writer placement: none | auto |
//                            comma CPU list "0,2,4" (default none)
//   DARSHAN_LDMS_SIMD        JSON-scanner SIMD cap: auto | avx2 | sse2
//                            | scalar (default auto; all levels are
//                            bit-identical)
//   DARSHAN_LDMS_FASTPATH    binary decode fast path: auto | on | off
//                            (default auto = on)
//
// The raw event store's durability is not an environment setting:
// whoever mounts a store::Store under the event database chooses its
// StoreConfig (mode, directory, retention).
//
// Unparsable values (negative, overflowing, trailing garbage, out of
// range) never take effect: the default is kept, the rejection is
// recorded in EnvConfig::errors, and a warning is logged.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "core/config.hpp"

namespace dlc::core {

/// Getter abstraction so tests can inject an environment; the default
/// reads the process environment via std::getenv.
using EnvGetter = std::function<const char*(const char*)>;

struct EnvConfig {
  bool enabled = false;
  ConnectorConfig connector;
  /// Variables that were present but unparsable (name=value), reported so
  /// deployments notice typos instead of silently running defaults.
  std::vector<std::string> errors;
};

/// Parses the connector configuration from the (injected) environment.
EnvConfig connector_config_from_env(const EnvGetter& getenv_fn = nullptr);

}  // namespace dlc::core
