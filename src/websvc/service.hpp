// HPC Web Services: the analysis/visualization back end (paper §IV-E).
//
// "Any data queries start from a front-end application and [are]
// transferred to a back-end application running on an HPC cluster" —
// Grafana panels name an analysis module; the back end runs it against
// DSOS and returns the transformed series.  This service is that back
// end: named analysis modules over a DSOS cluster, addressed through a
// small URL-style API (servable in-process or over the bundled HTTP
// server in websvc/http.hpp):
//
//   /api/health                         -> {"status":"ok", ...}
//   /api/schemas                        -> schema + index inventory
//   /api/jobs                           -> distinct job ids with row counts
//   /api/query?index=job_rank_time&job_id=2&rank=3&limit=100
//                                       -> raw rows (JSON)
//   /api/panel?module=fig9&job=2&bucket_s=10
//                                       -> Grafana panel JSON
//   /api/csv?index=time&job_id=2        -> text/csv export
//   (/api/query and /api/csv answer 400, naming the param, when a filter
//   value does not parse as its attribute's type or limit is not a
//   non-negative integer; /api/panel likewise for job= entries that are
//   not non-negative integers, a bucket_s that is not a number and a
//   hot_files top= that is not a non-negative integer)
//   /metrics                            -> Prometheus text exposition of
//                                          the obs registry (self-telemetry)
//   /api/obs                            -> all registry instruments as
//                                          JSON (incl. writer-placement
//                                          gauges); /metrics' JSON twin
//   /api/obs/spans                      -> slow-span exemplar ring (JSON)
//   /api/rollup                         -> rollup-engine status (policies,
//                                          cell counts, spill state; 404
//                                          when no engine is attached)
//   /api/rollup/<policy>?job=1,2&op=read,write&producer=nid40&rank=3
//              &from_s=0&to_s=600&bucket_s=60
//                                       -> rollup cells (JSON); 400
//                                          naming the param when job,
//                                          rank, from_s, to_s or bucket_s
//                                          does not parse
//   /api/anomalies                      -> online-anomaly alert feed:
//                                          firing/resolved alerts with
//                                          evidence plus engine status
//                                          (404 when no engine attached)
//   /api/anomalies/<job>  (or ?job=<j>) -> the same, one job only
//
// When a rollup engine is attached (set_rollup), the fig5/6/7/7_summary/9
// panel modules answer from rollup cells whenever a policy covers the
// panel (raw-scan fallback otherwise); the /api/panel response carries a
// "source" member ("rollup:<policy>" or "raw") so dashboards can tell.
// render_dashboard (websvc/dashboard.hpp) runs each panel through
// write_panel, the code behind /api/panel, into its own document.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "analysis/frame.hpp"
#include "anomaly/engine.hpp"
#include "dsos/cluster.hpp"
#include "json/writer.hpp"
#include "obs/registry.hpp"
#include "obs/spans.hpp"
#include "rollup/engine.hpp"

namespace dlc::websvc {

struct Response {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Parsed query string: key -> value (last occurrence wins).
using Params = std::map<std::string, std::string>;

/// An analysis module: DSOS + request params -> tidy frame.
using AnalysisModule = std::function<analysis::DataFrame(
    const dsos::DsosCluster& db, const Params& params)>;

class DashboardService {
 public:
  explicit DashboardService(std::shared_ptr<dsos::DsosCluster> db);

  /// Registers a module under `name` (addressable via /api/panel).
  /// The figure pipelines (fig5..fig9) are pre-registered.
  void register_module(const std::string& name, AnalysisModule module);

  /// Handles one request; never throws (errors become 4xx/5xx bodies).
  Response handle(const std::string& path_and_query) const;

  /// Runs panel `module` with `params` — what /api/panel?module=... does
  /// — and writes its frame into `w` as a "data" member, the same bytes
  /// /api/panel carries under "data".  A panel that cannot run writes an
  /// "error" member holding the error body /api/panel would answer.
  /// Never throws; counts as one request served.
  void write_panel(json::Writer& w, const std::string& module,
                   const Params& params) const;

  /// Splits "/a/b?x=1&y=2" into path and params (URL-decoding %XX and +).
  static void split_url(const std::string& url, std::string& path,
                        Params& params);

  std::uint64_t requests_served() const { return requests_; }

  /// Registry scraped by /metrics and the obs_summary module; defaults to
  /// the process-wide one (tests inject their own).
  void set_registry(const obs::Registry* registry) { registry_ = registry; }

  /// Trace collector behind /api/obs/spans and the obs_spans module;
  /// nullptr (the default) renders empty spans.
  void set_trace_collector(const obs::TraceCollector* collector) {
    collector_ = collector;
  }

  /// Rollup engine behind /api/rollup and the rollup-served figure
  /// panels; nullptr (the default) makes /api/rollup answer 404 and all
  /// panels run raw scans.
  void set_rollup(const rollup::RollupEngine* engine) { rollup_ = engine; }

  /// Anomaly engine behind /api/anomalies and the `alerts` panel
  /// module; nullptr (the default) makes /api/anomalies answer 404 and
  /// the panel render empty.
  void set_anomaly(const anomaly::AnomalyEngine* engine) { anomaly_ = engine; }

 private:
  /// A panel module's frame and where it came from.
  struct PanelFrame {
    analysis::DataFrame frame;
    std::string source;  // "raw" or "rollup:<policy>"
  };

  /// Runs `module` (from rollup cells when a policy covers it); nullopt
  /// when no such module is registered.  Throws what the module throws.
  std::optional<PanelFrame> run_panel(const std::string& module,
                                      const Params& params) const;

  Response api_health() const;
  Response api_schemas() const;
  Response api_jobs() const;
  Response api_query(const Params& params) const;
  Response api_panel(const Params& params) const;
  Response api_csv(const Params& params) const;
  Response api_metrics() const;
  Response api_obs() const;
  Response api_obs_spans() const;
  Response api_rollup_status() const;
  Response api_rollup_cells(const std::string& policy,
                            const Params& params) const;
  Response api_anomalies(const std::string& job) const;

  std::shared_ptr<dsos::DsosCluster> db_;
  std::map<std::string, AnalysisModule> modules_;
  const obs::Registry* registry_ = &obs::Registry::global();
  const obs::TraceCollector* collector_ = nullptr;
  const rollup::RollupEngine* rollup_ = nullptr;
  const anomaly::AnomalyEngine* anomaly_ = nullptr;
  mutable std::uint64_t requests_ = 0;
};

}  // namespace dlc::websvc
