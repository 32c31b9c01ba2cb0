// Export example: produce the artefacts the HPC Web Services layer serves
// — a Fig. 9-style Grafana panel JSON, a gnuplot script and tidy CSVs —
// from a monitored sw4 run.  Files land in ./dlc_export/.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analysis/figures.hpp"
#include "analysis/render.hpp"
#include "dsos/csv.hpp"
#include "exp/specs.hpp"

using namespace dlc;

int main() {
  std::printf("== Grafana/CSV export of a monitored sw4 run ==\n\n");

  exp::ExperimentSpec spec = exp::sw4_spec(simfs::FsKind::kLustre);
  spec.job_id = 31337;
  spec.decode_to_dsos = true;
  spec.sample_transport_health = true;  // drop/spool counters per daemon
  const exp::RunResult result = exp::run_experiment(spec);
  std::printf("sw4 job %llu: %.1fs, %llu events (%llu HDF5 dataset ops)\n",
              static_cast<unsigned long long>(spec.job_id), result.runtime_s,
              static_cast<unsigned long long>(result.events),
              static_cast<unsigned long long>(
                  result.dsos
                      ->query("darshan_data", "time",
                              dsos::Filter{{"module", std::string("H5D")}})
                      .size()));

  const std::filesystem::path out_dir = "dlc_export";
  std::filesystem::create_directories(out_dir);

  // 1. Raw event CSV (the store_csv view of the stream).
  {
    const auto rows = result.dsos->query("darshan_data", "job_rank_time");
    std::ofstream out(out_dir / "sw4_events.csv");
    dsos::export_csv(out, *core::darshan_data_schema(), rows);
    std::printf("wrote %s (%zu events)\n",
                (out_dir / "sw4_events.csv").c_str(), rows.size());
  }

  // 2. Fig. 9-style bucketed throughput + its Grafana panel JSON.
  const analysis::DataFrame buckets =
      analysis::fig9_throughput_buckets(*result.dsos, spec.job_id, 5.0);
  {
    std::ofstream out(out_dir / "sw4_throughput.csv");
    out << buckets.to_csv();
    std::ofstream panel(out_dir / "sw4_grafana_panel.json");
    panel << analysis::grafana_panel_json(buckets, "bucket_s", "bytes", "op",
                                          "sw4 bytes per op");
    std::printf("wrote %s and %s\n", (out_dir / "sw4_throughput.csv").c_str(),
                (out_dir / "sw4_grafana_panel.json").c_str());
  }

  // 3. gnuplot script for the same series.
  {
    std::ofstream out(out_dir / "sw4_throughput.gnuplot");
    out << analysis::gnuplot_script(buckets, "bucket_s", "bytes", "op",
                                    "sw4 checkpoint I/O");
    std::printf("wrote %s (pipe into gnuplot to render)\n",
                (out_dir / "sw4_throughput.gnuplot").c_str());
  }

  // 4. Transport-health panel: the per-daemon drop/spool counters sampled
  // on the metrics path (series named "<channel>@<daemon>").
  {
    analysis::DataFrame health;
    analysis::DataFrame::DoubleCol t_col, v_col;
    analysis::DataFrame::StringCol series_col;
    for (const analysis::TimeSeries& series : result.system_metrics) {
      const auto at = series.name.find('@');
      if (at == std::string::npos) continue;
      const std::string channel = series.name.substr(0, at);
      if (channel != "forwarded" && channel != "dropped" &&
          channel != "outage_dropped" && channel != "spooled" &&
          channel != "redelivered" && channel != "spool_depth") {
        continue;
      }
      for (std::size_t i = 0; i < series.t.size(); ++i) {
        t_col.push_back(series.t[i]);
        v_col.push_back(series.v[i]);
        series_col.push_back(series.name);
      }
    }
    health.add_double_column("time_s", std::move(t_col));
    health.add_double_column("value", std::move(v_col));
    health.add_string_column("series", std::move(series_col));
    std::ofstream out(out_dir / "sw4_transport_health.csv");
    out << health.to_csv();
    std::ofstream panel(out_dir / "sw4_transport_health_panel.json");
    panel << analysis::grafana_panel_json(health, "time_s", "value", "series",
                                          "sw4 transport health");
    std::printf("wrote %s and %s (%zu health points)\n",
                (out_dir / "sw4_transport_health.csv").c_str(),
                (out_dir / "sw4_transport_health_panel.json").c_str(),
                health.rows());
  }

  // 5. A terminal preview of what the dashboard shows.
  analysis::ScatterSeries w{'w', {}, {}}, r{'r', {}, {}};
  for (std::size_t i = 0; i < buckets.rows(); ++i) {
    auto& s = buckets.get_string(i, "op") == "write" ? w : r;
    s.x.push_back(buckets.get_double(i, "bucket_s"));
    s.y.push_back(buckets.get_double(i, "bytes"));
  }
  std::printf("\n%s", analysis::ascii_scatter({w, r}, 78, 14, "time (s)",
                                              "bytes per bucket")
                          .c_str());
  return 0;
}
