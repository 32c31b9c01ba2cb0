// Dashboard model: a declarative set of panels, each naming an analysis
// module and its parameters — the Grafana dashboard definition the paper's
// users "can view, edit and share".  render() executes every panel against
// the service's DSOS data and emits a self-contained dashboard JSON.
#pragma once

#include <string>
#include <vector>

#include "websvc/service.hpp"

namespace dlc::websvc {

struct PanelDef {
  std::string title;
  std::string module;  // registered AnalysisModule name
  Params params;
  /// Chart hint for the front end ("timeseries", "bars", "table").
  std::string viz = "timeseries";
};

struct Dashboard {
  std::string title;
  std::vector<PanelDef> panels;
};

/// The dashboard shown in the paper's Fig. 9 walkthrough: job overview,
/// per-node requests, per-rank durations, throughput timeline.
Dashboard default_io_dashboard(std::uint64_t job_id);

/// Self-monitoring dashboard over the connector pipeline itself: the obs
/// registry flattened to a metric table plus the slow-span exemplar ring
/// (per-hop latency breakdown of the worst end-to-end traces).  Sits next
/// to the health panel; see DESIGN.md "Self-telemetry".
Dashboard obs_self_dashboard();

/// Executes all panels and returns the dashboard with inlined data as
/// JSON (panels that fail render an "error" field instead of data).  Each
/// panel's "data" is written in place by DashboardService::write_panel,
/// so it is byte-identical to the "data" of the matching /api/panel body.
std::string render_dashboard(const DashboardService& service,
                             const Dashboard& dashboard);

}  // namespace dlc::websvc
