#include "websvc/dashboard.hpp"

#include "json/writer.hpp"

namespace dlc::websvc {

Dashboard default_io_dashboard(std::uint64_t job_id) {
  const std::string job = std::to_string(job_id);
  Dashboard dash;
  dash.title = "Application I/O (Darshan-LDMS Connector)";
  dash.panels = {
      PanelDef{"Op occurrences", "fig5", {{"job", job}}, "bars"},
      PanelDef{"Requests per node", "fig6", {{"job", job}}, "bars"},
      PanelDef{"Durations per rank", "fig7", {{"job", job}}, "table"},
      PanelDef{"I/O timeline", "fig8", {{"job", job}}, "timeseries"},
      PanelDef{"Throughput (10s buckets)",
               "fig9",
               {{"job", job}, {"bucket_s", "10"}},
               "timeseries"},
      PanelDef{"Alerts", "alerts", {{"job", job}}, "table"},
  };
  return dash;
}

Dashboard obs_self_dashboard() {
  Dashboard dash;
  dash.title = "Connector pipeline self-telemetry";
  dash.panels = {
      PanelDef{"Pipeline metrics", "obs_summary", {}, "table"},
      PanelDef{"Slowest end-to-end spans", "obs_spans", {}, "table"},
  };
  return dash;
}

std::string render_dashboard(const DashboardService& service,
                             const Dashboard& dashboard) {
  json::Writer w;
  w.begin_object();
  w.member("title", dashboard.title);
  w.key("panels");
  w.begin_array();
  for (const PanelDef& panel : dashboard.panels) {
    w.begin_object();
    w.member("title", panel.title);
    w.member("module", panel.module);
    w.member("viz", panel.viz);
    // The panel's frame goes straight into this document, written by the
    // code that writes /api/panel's "data".
    service.write_panel(w, panel.module, panel.params);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace dlc::websvc
