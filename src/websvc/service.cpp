#include "websvc/service.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/figures.hpp"
#include "analysis/render.hpp"
#include "core/schema_darshan.hpp"
#include "dsos/csv.hpp"
#include "json/writer.hpp"
#include "rollup/serve.hpp"
#include "util/strings.hpp"

namespace dlc::websvc {

namespace {

constexpr const char* kSchema = "darshan_data";

std::string error_body(const std::string& message) {
  json::Writer w;
  w.begin_object();
  w.member("error", message);
  w.end_object();
  return w.take();
}

Response bad_request(const std::string& message) {
  return Response{400, "application/json", error_body(message)};
}

Response not_found(const std::string& message) {
  return Response{404, "application/json", error_body(message)};
}

char from_hex(char c) {
  if (c >= '0' && c <= '9') return static_cast<char>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<char>(c - 'a' + 10);
  if (c >= 'A' && c <= 'F') return static_cast<char>(c - 'A' + 10);
  return 0;
}

std::string url_decode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      out.push_back(
          static_cast<char>((from_hex(s[i + 1]) << 4) | from_hex(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

/// A request parameter whose value does not parse; the request answers
/// 400 naming it.
class BadParam : public std::invalid_argument {
 public:
  BadParam(const std::string& key, const std::string& value)
      : std::invalid_argument("bad value for " + key + ": " + value) {}
};

/// Param `key`'s `value` parsed as `type` (dsos::parse_value, the parser
/// behind CSV import); throws BadParam when it does not parse.
dsos::Value parse_param(dsos::AttrType type, const std::string& key,
                        const std::string& value) {
  auto parsed = dsos::parse_value(type, value);
  if (!parsed) throw BadParam(key, value);
  return std::move(*parsed);
}

/// Runs a route, turning what it throws into the answer: 400 for a bad
/// parameter, 500 for anything else.
template <typename Route>
Response guarded(const Route& route) {
  try {
    return route();
  } catch (const BadParam& e) {
    return bad_request(e.what());
  } catch (const std::exception& e) {
    return Response{500, "application/json", error_body(e.what())};
  }
}

/// Builds an equality filter from the query params that name schema
/// attributes (anything that is not a control key).  Throws BadParam for
/// a value that does not parse as its attribute's type.
dsos::Filter filter_from_params(const dsos::Schema& schema,
                                const Params& params) {
  static const std::set<std::string> kControl = {"index", "limit", "module",
                                                 "schema"};
  dsos::Filter filter;
  for (const auto& [key, value] : params) {
    if (kControl.contains(key)) continue;
    const auto attr_id = schema.find_attr(key);
    if (!attr_id) continue;
    filter.push_back({key, dsos::Cmp::kEq,
                      parse_param(schema.attrs()[*attr_id].type, key, value)});
  }
  return filter;
}

/// `df` as {"columns": [...], "rows": [[...], ...]}, doubles with 9
/// fractional digits.  Each column is found once and walked by type.
void frame_to_json(json::Writer& w, const analysis::DataFrame& df) {
  using analysis::DataFrame;
  w.begin_object();
  w.key("columns");
  w.begin_array();
  for (const auto& name : df.column_names()) w.value_string(name);
  w.end_array();
  std::vector<const DataFrame::Column*> columns;
  for (std::size_t c = 0; c < df.cols(); ++c) {
    columns.push_back(&df.column_at(c));
  }
  w.key("rows");
  w.begin_array();
  for (std::size_t r = 0; r < df.rows(); ++r) {
    w.begin_array();
    for (const DataFrame::Column* column : columns) {
      if (const auto* ints = std::get_if<DataFrame::IntCol>(column)) {
        w.value_int((*ints)[r]);
      } else if (const auto* dbls = std::get_if<DataFrame::DoubleCol>(column)) {
        w.value_double((*dbls)[r], 9);
      } else {
        w.value_string(std::get<DataFrame::StringCol>(*column)[r]);
      }
    }
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

/// The comma-separated job= list; every job when the param is absent.
std::vector<std::uint64_t> job_list(const dsos::DsosCluster& db,
                                    const Params& params) {
  std::vector<std::uint64_t> jobs;
  const auto it = params.find("job");
  if (it != params.end()) {
    for (const std::string& part : split(it->second, ',')) {
      jobs.push_back(std::get<std::uint64_t>(
          parse_param(dsos::AttrType::kUint64, "job", part)));
    }
    return jobs;
  }
  // All jobs present in the database.
  std::set<std::uint64_t> distinct;
  for (const auto* obj : db.query(kSchema, "time")) {
    distinct.insert(obj->as_uint("job_id"));
  }
  jobs.assign(distinct.begin(), distinct.end());
  return jobs;
}

/// The fig9 bucket_s param: 10 s when absent or not positive.
double bucket_param(const Params& params) {
  const auto it = params.find("bucket_s");
  const double bucket =
      it != params.end()
          ? std::get<double>(
                parse_param(dsos::AttrType::kDouble, "bucket_s", it->second))
          : 10.0;
  return bucket > 0 ? bucket : 10.0;
}

}  // namespace

DashboardService::DashboardService(std::shared_ptr<dsos::DsosCluster> db)
    : db_(std::move(db)) {
  // The paper's figure analyses ship as pre-registered modules.
  register_module("fig5", [](const dsos::DsosCluster& db,
                             const Params& params) {
    return analysis::fig5_op_counts(db, job_list(db, params));
  });
  register_module("fig6", [](const dsos::DsosCluster& db,
                             const Params& params) {
    return analysis::fig6_requests_per_node(db, job_list(db, params));
  });
  register_module("fig7", [](const dsos::DsosCluster& db,
                             const Params& params) {
    return analysis::fig7_rank_durations(db, job_list(db, params));
  });
  register_module("fig7_summary", [](const dsos::DsosCluster& db,
                                     const Params& params) {
    return analysis::fig7_job_summary(db, job_list(db, params));
  });
  register_module("fig8", [](const dsos::DsosCluster& db,
                             const Params& params) {
    const auto jobs = job_list(db, params);
    return jobs.empty() ? analysis::DataFrame{}
                        : analysis::fig8_timeline(db, jobs.front());
  });
  register_module("fig9", [](const dsos::DsosCluster& db,
                             const Params& params) {
    const auto jobs = job_list(db, params);
    const double bucket = bucket_param(params);
    return jobs.empty() ? analysis::DataFrame{}
                        : analysis::fig9_throughput_buckets(db, jobs.front(),
                                                            bucket);
  });
  register_module("hot_files", [](const dsos::DsosCluster& db,
                                  const Params& params) {
    const auto it = params.find("top");
    const std::size_t top_n =
        it != params.end()
            ? static_cast<std::size_t>(std::get<std::uint64_t>(
                  parse_param(dsos::AttrType::kUint64, "top", it->second)))
            : 10;
    return analysis::hot_files(db, job_list(db, params),
                               top_n > 0 ? top_n : 10);
  });
  // Self-telemetry modules (the obs_self_dashboard panels): one flat
  // (metric, value) table off the registry, one slow-span exemplar table
  // off the trace collector.
  register_module("obs_summary", [this](const dsos::DsosCluster&,
                                        const Params&) {
    analysis::DataFrame df;
    analysis::DataFrame::StringCol names;
    analysis::DataFrame::DoubleCol values;
    for (auto& [name, value] : registry_->flatten()) {
      names.push_back(name);
      values.push_back(value);
    }
    df.add_string_column("metric", std::move(names));
    df.add_double_column("value", std::move(values));
    return df;
  });
  register_module("obs_spans", [this](const dsos::DsosCluster&,
                                      const Params&) {
    analysis::DataFrame df;
    analysis::DataFrame::StringCol ids;
    analysis::DataFrame::IntCol e2e;
    std::array<analysis::DataFrame::IntCol, obs::kHopCount> deltas;
    if (collector_ != nullptr) {
      for (const obs::TraceContext& t : collector_->worst()) {
        ids.push_back(std::to_string(t.id));
        e2e.push_back(t.e2e_ns());
        std::int64_t prev = t.hop(obs::Hop::kIntercepted);
        for (std::size_t h = 1; h < obs::kHopCount; ++h) {
          const std::int64_t cur = t.hops[h];
          deltas[h].push_back(cur != obs::kHopUnset && prev != obs::kHopUnset
                                  ? cur - prev
                                  : -1);
          if (cur != obs::kHopUnset) prev = cur;
        }
      }
    }
    df.add_string_column("id", std::move(ids));
    df.add_int_column("e2e_ns", std::move(e2e));
    for (std::size_t h = 1; h < obs::kHopCount; ++h) {
      df.add_int_column(std::string(obs::kHopNames[h]) + "_ns",
                        std::move(deltas[h]));
    }
    return df;
  });
  // Live-alert table off the anomaly engine (the default dashboard's
  // alerts panel); empty when no engine is attached.
  register_module("alerts", [this](const dsos::DsosCluster&,
                                   const Params& params) {
    analysis::DataFrame df;
    analysis::DataFrame::StringCol kind, state, severity, job, node, op;
    analysis::DataFrame::StringCol detail;
    analysis::DataFrame::DoubleCol fired_bucket, last_bucket;
    if (anomaly_ != nullptr) {
      const auto it = params.find("job");
      const std::string job_filter =
          it != params.end() ? it->second : std::string();
      const auto fmt = [](const char* f, double a, double b, double c) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), f, a, b, c);
        return std::string(buf);
      };
      for (const anomaly::Alert& a : anomaly_->alerts(job_filter)) {
        kind.push_back(std::string(anomaly::alert_kind_name(a.kind)));
        state.push_back(std::string(anomaly::alert_state_name(a.state)));
        severity.push_back(std::string(anomaly::severity_name(a.severity)));
        job.push_back(a.job);
        node.push_back(a.node);
        op.push_back(a.op);
        fired_bucket.push_back(a.fired_bucket);
        last_bucket.push_back(a.last_bucket);
        switch (a.kind) {
          case anomaly::AlertKind::kStraggler:
            detail.push_back(fmt("z=%.3g node=%.3gs peers=%.3gs",
                                 a.evidence.z, a.evidence.node_mean,
                                 a.evidence.peer_mean));
            break;
          case anomaly::AlertKind::kSlowdown:
            detail.push_back(fmt("rise=%.3g slope=%.3g r2=%.3g",
                                 a.evidence.rel_rise, a.evidence.slope,
                                 a.evidence.r2));
            break;
          case anomaly::AlertKind::kBurst:
            // Trailing arg unused by the format (printf ignores extras).
            detail.push_back(fmt("rate=%.4g/s ewma=%.4g/s", a.evidence.rate,
                                 a.evidence.ewma, 0.0));
            break;
        }
      }
    }
    df.add_string_column("kind", std::move(kind));
    df.add_string_column("state", std::move(state));
    df.add_string_column("severity", std::move(severity));
    df.add_string_column("job", std::move(job));
    df.add_string_column("node", std::move(node));
    df.add_string_column("op", std::move(op));
    df.add_double_column("fired_bucket", std::move(fired_bucket));
    df.add_double_column("last_bucket", std::move(last_bucket));
    df.add_string_column("detail", std::move(detail));
    return df;
  });
}

void DashboardService::register_module(const std::string& name,
                                       AnalysisModule module) {
  modules_[name] = std::move(module);
}

void DashboardService::split_url(const std::string& url, std::string& path,
                                 Params& params) {
  params.clear();
  const std::size_t qmark = url.find('?');
  path = url.substr(0, qmark);
  if (qmark == std::string::npos) return;
  for (const std::string& pair : split(url.substr(qmark + 1), '&')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      params[url_decode(pair)] = "";
    } else {
      params[url_decode(pair.substr(0, eq))] = url_decode(pair.substr(eq + 1));
    }
  }
}

Response DashboardService::handle(const std::string& path_and_query) const {
  ++requests_;
  std::string path;
  Params params;
  split_url(path_and_query, path, params);
  return guarded([&] {
    if (path == "/api/health") return api_health();
    if (path == "/api/schemas") return api_schemas();
    if (path == "/api/jobs") return api_jobs();
    if (path == "/api/query") return api_query(params);
    if (path == "/api/panel") return api_panel(params);
    if (path == "/api/csv") return api_csv(params);
    if (path == "/metrics") return api_metrics();
    if (path == "/api/obs") return api_obs();
    if (path == "/api/obs/spans") return api_obs_spans();
    if (path == "/api/store") return api_store();
    if (path == "/api/rollup") return api_rollup_status();
    if (path.starts_with("/api/rollup/")) {
      return api_rollup_cells(path.substr(sizeof("/api/rollup/") - 1),
                              params);
    }
    if (path == "/api/anomalies") {
      const auto it = params.find("job");
      return api_anomalies(it != params.end() ? it->second : std::string());
    }
    if (path.starts_with("/api/anomalies/")) {
      return api_anomalies(path.substr(sizeof("/api/anomalies/") - 1));
    }
    return not_found("no route for " + path);
  });
}

void DashboardService::write_panel(json::Writer& w, const std::string& module,
                                   const Params& params) const {
  ++requests_;
  std::optional<PanelFrame> panel;
  const Response outcome = guarded([&] {
    panel = run_panel(module, params);
    return panel ? Response{} : not_found("unknown module " + module);
  });
  if (outcome.status != 200) {
    w.member("error", outcome.body);
    return;
  }
  w.key("data");
  frame_to_json(w, panel->frame);
}

Response DashboardService::api_metrics() const {
  return Response{200, "text/plain; version=0.0.4",
                  registry_->prometheus_text()};
}

Response DashboardService::api_obs() const {
  // Every registry instrument flattened to {"name": value} — the JSON
  // twin of /metrics.  Includes the dlc.ingest.writer.<w>.cpu placement
  // gauges, which is how operators (and the pinning regression test)
  // confirm where shard writers actually landed.
  json::Writer w;
  w.begin_object();
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, value] : registry_->flatten()) {
    w.member(name, value);
  }
  w.end_object();
  w.end_object();
  return Response{200, "application/json", w.take()};
}

Response DashboardService::api_obs_spans() const {
  if (collector_ == nullptr) {
    return Response{200, "application/json", "{\"spans\":[]}"};
  }
  return Response{200, "application/json", collector_->spans_json()};
}

Response DashboardService::api_store() const {
  if (store_ == nullptr) {
    return not_found("no durable store attached (memory mode)");
  }
  return Response{200, "application/json", store_->status_json()};
}

Response DashboardService::api_health() const {
  json::Writer w;
  w.begin_object();
  w.member("status", "ok");
  w.member("objects", static_cast<std::uint64_t>(db_->total_objects()));
  w.member("shards", static_cast<std::uint64_t>(db_->shard_count()));
  w.end_object();
  return Response{200, "application/json", w.take()};
}

Response DashboardService::api_schemas() const {
  const auto schema = core::darshan_data_schema();
  json::Writer w;
  w.begin_object();
  w.key("schemas");
  w.begin_array();
  w.begin_object();
  w.member("name", schema->name());
  w.key("attrs");
  w.begin_array();
  for (const auto& attr : schema->attrs()) {
    w.begin_object();
    w.member("name", attr.name);
    w.member("type", dsos::attr_type_name(attr.type));
    w.end_object();
  }
  w.end_array();
  w.key("indices");
  w.begin_array();
  for (const auto& idx : schema->indices()) w.value_string(idx.name);
  w.end_array();
  w.end_object();
  w.end_array();
  w.end_object();
  return Response{200, "application/json", w.take()};
}

Response DashboardService::api_jobs() const {
  std::map<std::uint64_t, std::uint64_t> counts;
  for (const auto* obj : db_->query(kSchema, "time")) {
    ++counts[obj->as_uint("job_id")];
  }
  json::Writer w;
  w.begin_object();
  w.key("jobs");
  w.begin_array();
  for (const auto& [job, rows] : counts) {
    w.begin_object();
    w.member("job_id", job);
    w.member("rows", rows);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return Response{200, "application/json", w.take()};
}

Response DashboardService::api_query(const Params& params) const {
  const auto schema = db_->shard(0).container().schema(kSchema);
  if (!schema) return not_found("no darshan_data schema loaded");
  const auto index_it = params.find("index");
  const std::string index =
      index_it != params.end() ? index_it->second : "job_rank_time";
  if (!schema->find_index(index)) return bad_request("unknown index " + index);

  std::size_t limit = 1000;
  if (const auto it = params.find("limit"); it != params.end()) {
    limit = static_cast<std::size_t>(std::get<std::uint64_t>(
        parse_param(dsos::AttrType::kUint64, "limit", it->second)));
  }
  auto rows = db_->query(kSchema, index, filter_from_params(*schema, params));
  const std::size_t total = rows.size();
  if (rows.size() > limit) rows.resize(limit);

  const analysis::DataFrame df = analysis::DataFrame::from_objects(rows);
  json::Writer w(json::NumberFormat::kFastItoa);
  w.begin_object();
  w.member("total", static_cast<std::uint64_t>(total));
  w.member("returned", static_cast<std::uint64_t>(rows.size()));
  w.key("data");
  frame_to_json(w, df);
  w.end_object();
  return Response{200, "application/json", w.take()};
}

std::optional<DashboardService::PanelFrame> DashboardService::run_panel(
    const std::string& module, const Params& params) const {
  // Rollup-first serving: the figure panels a policy covers come from
  // rollup cells (no raw-event scan); everything else — and every panel
  // when no engine is attached — runs its registered raw module.
  rollup::PanelResult served;
  bool handled = false;
  if (rollup_ != nullptr) {
    if (module == "fig5") {
      served = rollup::panel_fig5(rollup_, *db_, job_list(*db_, params));
      handled = true;
    } else if (module == "fig6") {
      served = rollup::panel_fig6(rollup_, *db_, job_list(*db_, params));
      handled = true;
    } else if (module == "fig7") {
      served = rollup::panel_fig7(rollup_, *db_, job_list(*db_, params));
      handled = true;
    } else if (module == "fig7_summary") {
      served =
          rollup::panel_fig7_summary(rollup_, *db_, job_list(*db_, params));
      handled = true;
    } else if (module == "fig9") {
      const auto jobs = job_list(*db_, params);
      const double bucket = bucket_param(params);
      // No jobs to serve from rollups: leave handled false so the
      // registered raw fig9 module answers, as it does engine-less —
      // not a fabricated empty frame labeled "raw".
      if (!jobs.empty()) {
        served = rollup::panel_fig9(rollup_, *db_, jobs.front(), bucket);
        handled = true;
      }
    }
  }
  if (handled) {
    return PanelFrame{std::move(served.frame),
                      served.from_rollup ? "rollup:" + served.policy : "raw"};
  }
  const auto module_it = modules_.find(module);
  if (module_it == modules_.end()) return std::nullopt;
  return PanelFrame{module_it->second(*db_, params), "raw"};
}

Response DashboardService::api_panel(const Params& params) const {
  const auto it = params.find("module");
  if (it == params.end()) return bad_request("panel needs module=");
  const std::string& module = it->second;
  const std::optional<PanelFrame> panel = run_panel(module, params);
  if (!panel) return not_found("unknown module " + module);
  json::Writer w;
  w.begin_object();
  w.member("module", module);
  w.member("source", panel->source);
  w.key("data");
  frame_to_json(w, panel->frame);
  w.end_object();
  return Response{200, "application/json", w.take()};
}

Response DashboardService::api_csv(const Params& params) const {
  const auto schema = db_->shard(0).container().schema(kSchema);
  if (!schema) return not_found("no darshan_data schema loaded");
  const auto index_it = params.find("index");
  const std::string index =
      index_it != params.end() ? index_it->second : "time";
  if (!schema->find_index(index)) return bad_request("unknown index " + index);
  const auto rows =
      db_->query(kSchema, index, filter_from_params(*schema, params));
  std::ostringstream out;
  dsos::export_csv(out, *schema, rows);
  return Response{200, "text/csv", out.str()};
}

Response DashboardService::api_rollup_status() const {
  if (rollup_ == nullptr) {
    return not_found("no rollup engine attached");
  }
  return Response{200, "application/json", rollup_->status_json()};
}

Response DashboardService::api_rollup_cells(const std::string& policy,
                                            const Params& params) const {
  if (rollup_ == nullptr) {
    return not_found("no rollup engine attached");
  }
  if (rollup_->find_policy(policy) == nullptr) {
    return not_found("unknown rollup policy " + policy);
  }
  const auto seconds = [&params](const std::string& key, double& out) {
    if (const auto it = params.find(key); it != params.end()) {
      out = std::get<double>(
          parse_param(dsos::AttrType::kDouble, key, it->second));
    }
  };
  rollup::RollupQuery q;
  if (params.contains("job")) q.jobs = job_list(*db_, params);
  if (const auto it = params.find("op"); it != params.end()) {
    for (const std::string& part : split(it->second, ',')) {
      if (!part.empty()) q.ops.push_back(part);
    }
  }
  if (const auto it = params.find("producer"); it != params.end()) {
    q.producer = it->second;
  }
  if (const auto it = params.find("rank"); it != params.end()) {
    q.rank = std::get<std::int64_t>(
        parse_param(dsos::AttrType::kInt64, "rank", it->second));
  }
  seconds("from_s", q.from_s);
  seconds("to_s", q.to_s);
  seconds("bucket_s", q.bucket_s);
  std::vector<rollup::RollupCell> cells;
  try {
    cells = rollup_->query(policy, q);
  } catch (const std::invalid_argument& e) {
    return bad_request(e.what());
  }
  json::Writer w(json::NumberFormat::kFastItoa);
  w.begin_object();
  w.member("policy", policy);
  w.member("count", static_cast<std::uint64_t>(cells.size()));
  w.key("cells");
  w.begin_array();
  for (const rollup::RollupCell& cell : cells) {
    const bool has_dur = cell.agg.count > 0 &&
                         cell.agg.dur_min <= cell.agg.dur_max;
    w.begin_object();
    w.member("policy", cell.policy);
    w.member("job_id", cell.key.job);
    w.member("ProducerName", cell.key.producer);
    w.member("rank", cell.key.rank);
    w.member("op", cell.key.op);
    w.member("module", cell.key.module);
    w.key("bucket");
    w.value_double(cell.bucket_start, 9);
    w.key("bucket_w");
    w.value_double(cell.bucket_w, 9);
    w.member("count", cell.agg.count);
    w.member("bytes", cell.agg.bytes);
    w.key("dur_sum");
    w.value_double(cell.agg.dur_sum, 9);
    w.key("dur_min");
    w.value_double(has_dur ? cell.agg.dur_min : 0.0, 9);
    w.key("dur_max");
    w.value_double(has_dur ? cell.agg.dur_max : 0.0, 9);
    w.member("dur_hist", cell.agg.dur_hist.encode());
    // Convenience quantiles off the histogram (nanoseconds).
    w.key("dur_p50_ns");
    w.value_double(cell.agg.dur_hist.percentile(50.0), 3);
    w.key("dur_p95_ns");
    w.value_double(cell.agg.dur_hist.percentile(95.0), 3);
    w.key("dur_p99_ns");
    w.value_double(cell.agg.dur_hist.percentile(99.0), 3);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return Response{200, "application/json", w.take()};
}

Response DashboardService::api_anomalies(const std::string& job) const {
  if (anomaly_ == nullptr) {
    return not_found("no anomaly engine attached");
  }
  const std::vector<anomaly::Alert> alerts = anomaly_->alerts(job);
  std::size_t firing = 0;
  for (const anomaly::Alert& a : alerts) {
    if (a.state == anomaly::AlertState::kFiring) ++firing;
  }
  const anomaly::AnomalyStats stats = anomaly_->stats();
  json::Writer w;
  w.begin_object();
  if (!job.empty()) w.member("job", job);
  w.member("firing", static_cast<std::uint64_t>(firing));
  w.member("total_fired", stats.alerts_fired);
  w.member("total_resolved", stats.alerts_resolved);
  w.key("engine");
  w.value_raw(anomaly_->status_json());
  w.key("alerts");
  w.begin_array();
  for (const anomaly::Alert& a : alerts) {
    anomaly::AlertManager::write_alert_json(w, a);
  }
  w.end_array();
  w.end_object();
  return Response{200, "application/json", w.take()};
}

}  // namespace dlc::websvc
