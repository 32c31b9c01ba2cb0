// Tests for the HPC Web Services layer: URL parsing, API routes, panel
// modules, the HTTP server round-trip, dashboard rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "anomaly/engine.hpp"
#include "core/schema_darshan.hpp"
#include "dsos/ingest.hpp"
#include "json/parser.hpp"
#include "json/scan.hpp"
#include "rollup/engine.hpp"
#include "util/cpu.hpp"
#include "rollup/policy.hpp"
#include "websvc/dashboard.hpp"
#include "websvc/http.hpp"
#include "websvc/service.hpp"

namespace dlc::websvc {
namespace {

/// Small populated database: 2 jobs x 2 ranks x a few ops.
std::shared_ptr<dsos::DsosCluster> demo_db() {
  dsos::ClusterConfig cfg;
  cfg.shard_count = 2;
  cfg.shard_attr = "rank";
  cfg.parallel_query = false;
  auto db = std::make_shared<dsos::DsosCluster>(cfg);
  const auto schema = core::darshan_data_schema();
  db->register_schema(schema);
  auto add = [&](std::uint64_t job, std::int64_t rank, const std::string& op,
                 double ts, double dur, std::int64_t len) {
    db->insert(dsos::make_object(
        schema,
        {std::string("POSIX"), std::uint64_t{99066}, std::string("nid00040"),
         std::int64_t{0}, std::string("N/A"), rank, std::int64_t{-1},
         std::uint64_t{7}, std::string("N/A"), std::int64_t{len - 1},
         std::string("MOD"), job, op, std::int64_t{1}, std::int64_t{0},
         std::int64_t{-1}, dur, len, std::int64_t{-1}, std::int64_t{-1},
         std::int64_t{-1}, std::string("N/A"), std::int64_t{-1}, ts}));
  };
  for (std::uint64_t job : {1u, 2u}) {
    for (std::int64_t rank : {0, 1}) {
      add(job, rank, "write", 100.0 + static_cast<double>(job), 0.5, 1024);
      add(job, rank, "read", 200.0 + static_cast<double>(job), 0.1, 512);
    }
  }
  return db;
}

TEST(Service, SplitUrlDecodesParams) {
  std::string path;
  Params params;
  DashboardService::split_url("/api/query?index=time&op=read%2Bwrite&x=a+b",
                              path, params);
  EXPECT_EQ(path, "/api/query");
  EXPECT_EQ(params.at("index"), "time");
  EXPECT_EQ(params.at("op"), "read+write");
  EXPECT_EQ(params.at("x"), "a b");
  DashboardService::split_url("/plain", path, params);
  EXPECT_EQ(path, "/plain");
  EXPECT_TRUE(params.empty());
}

TEST(Service, HealthReportsObjectCount) {
  DashboardService service(demo_db());
  const Response r = service.handle("/api/health");
  EXPECT_EQ(r.status, 200);
  const auto doc = json::parse(r.body);
  EXPECT_EQ(doc->get_string("status"), "ok");
  EXPECT_EQ(doc->get_uint("objects"), 8u);
}

TEST(Service, SchemasListsIndices) {
  DashboardService service(demo_db());
  const Response r = service.handle("/api/schemas");
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("job_rank_time"), std::string::npos);
  EXPECT_NE(r.body.find("seg_timestamp"), std::string::npos);
}

TEST(Service, JobsEnumeratesDistinctJobs) {
  DashboardService service(demo_db());
  const Response r = service.handle("/api/jobs");
  const auto doc = json::parse(r.body);
  const auto& jobs = doc->find("jobs")->as_array();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].get_uint("job_id"), 1u);
  EXPECT_EQ(jobs[0].get_uint("rows"), 4u);
}

TEST(Service, QueryFiltersAndLimits) {
  DashboardService service(demo_db());
  const Response r =
      service.handle("/api/query?index=job_rank_time&job_id=2&rank=1");
  ASSERT_EQ(r.status, 200);
  const auto doc = json::parse(r.body);
  EXPECT_EQ(doc->get_uint("total"), 2u);
  EXPECT_EQ(doc->get_uint("returned"), 2u);

  const Response limited =
      service.handle("/api/query?index=time&limit=3");
  const auto ldoc = json::parse(limited.body);
  EXPECT_EQ(ldoc->get_uint("total"), 8u);
  EXPECT_EQ(ldoc->get_uint("returned"), 3u);
}

TEST(Service, QueryRejectsUnknownIndex) {
  DashboardService service(demo_db());
  EXPECT_EQ(service.handle("/api/query?index=bogus").status, 400);
}

TEST(Service, QueryAndCsvRejectUnparsableValuesNamingTheParam) {
  DashboardService service(demo_db());
  const struct {
    const char* url;
    const char* param;
  } cases[] = {
      {"/api/query?index=job_rank_time&rank=abc", "rank"},
      {"/api/query?index=job_rank_time&job_id=-5", "job_id"},
      {"/api/query?limit=abc", "limit"},
      {"/api/csv?index=time&rank=zz", "rank"},
  };
  for (const auto& c : cases) {
    const Response r = service.handle(c.url);
    EXPECT_EQ(r.status, 400) << c.url;
    const auto doc = json::parse(r.body);
    ASSERT_TRUE(doc.has_value()) << c.url;
    EXPECT_NE(doc->get_string("error").find(c.param), std::string::npos)
        << c.url << " -> " << r.body;
  }
}

TEST(Service, PanelAndRollupParamsRejectUnparsableValues) {
  auto db = demo_db();
  rollup::RollupEngineConfig cfg;
  cfg.policies = rollup::default_rollup_policies();
  rollup::RollupEngine engine(cfg);
  engine.attach(*db);
  engine.flush();
  DashboardService raw(db);
  DashboardService served(db);
  served.set_rollup(&engine);
  const struct {
    const char* url;
    const char* error;
  } cases[] = {
      {"/api/rollup/op_counts?job=abc", "bad value for job: abc"},
      {"/api/rollup/op_counts?job=1,x", "bad value for job: x"},
      {"/api/rollup/op_counts?rank=r1", "bad value for rank: r1"},
      {"/api/rollup/op_counts?from_s=0s", "bad value for from_s: 0s"},
      {"/api/rollup/op_counts?to_s=", "bad value for to_s: "},
      {"/api/rollup/op_counts?bucket_s=ten", "bad value for bucket_s: ten"},
      {"/api/panel?module=fig5&job=abc", "bad value for job: abc"},
      {"/api/panel?module=fig9&job=2&bucket_s=ten",
       "bad value for bucket_s: ten"},
      {"/api/panel?module=hot_files&top=-1", "bad value for top: -1"},
  };
  for (const auto& c : cases) {
    for (const DashboardService* service : {&raw, &served}) {
      const Response r = service->handle(c.url);
      const bool rollup_route =
          std::string_view(c.url).starts_with("/api/rollup");
      if (service == &raw && rollup_route) {
        EXPECT_EQ(r.status, 404) << c.url;  // no engine attached
        continue;
      }
      EXPECT_EQ(r.status, 400) << c.url;
      const auto doc = json::parse(r.body);
      ASSERT_TRUE(doc.has_value()) << c.url;
      EXPECT_EQ(doc->get_string("error"), c.error) << c.url;
    }
  }
  // Parseable values answer as before, including the 10 s fallback for
  // a bucket_s that is not positive.
  for (const DashboardService* service : {&raw, &served}) {
    const std::string ten =
        service->handle("/api/panel?module=fig9&job=2&bucket_s=10").body;
    EXPECT_EQ(service->handle("/api/panel?module=fig9&job=2&bucket_s=0").body,
              ten);
    EXPECT_EQ(service->handle("/api/panel?module=fig9&job=2&bucket_s=-5").body,
              ten);
    EXPECT_EQ(service->handle("/api/panel?module=fig9&job=2").body, ten);
    EXPECT_EQ(service->handle("/api/panel?module=fig5&job=1,2").status, 200);
  }
  EXPECT_EQ(served.handle("/api/rollup/op_counts?job=1,2&rank=0&from_s=0"
                          "&to_s=1e9&bucket_s=60")
                .status,
            200);
}

TEST(Service, PanelRunsFigureModules) {
  DashboardService service(demo_db());
  const Response r = service.handle("/api/panel?module=fig5&job=1,2");
  ASSERT_EQ(r.status, 200);
  const auto doc = json::parse(r.body);
  const auto* data = doc->find("data");
  ASSERT_TRUE(data);
  const auto& columns = data->find("columns")->as_array();
  ASSERT_EQ(columns.size(), 3u);  // op, mean_count, ci95
  const auto& rows = data->find("rows")->as_array();
  ASSERT_EQ(rows.size(), 2u);  // read, write
}

TEST(Service, PanelUnknownModuleIs404) {
  DashboardService service(demo_db());
  EXPECT_EQ(service.handle("/api/panel?module=nope").status, 404);
  EXPECT_EQ(service.handle("/api/panel").status, 400);
}

TEST(Service, CustomModuleRegistration) {
  DashboardService service(demo_db());
  service.register_module(
      "row_count", [](const dsos::DsosCluster& db, const Params&) {
        analysis::DataFrame df;
        df.add_int_column(
            "rows", {static_cast<std::int64_t>(db.total_objects())});
        return df;
      });
  const Response r = service.handle("/api/panel?module=row_count");
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("[8]"), std::string::npos);
}

TEST(Service, CsvExportsRows) {
  DashboardService service(demo_db());
  const Response r = service.handle("/api/csv?index=time&op=read");
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "text/csv");
  // Header + 4 read rows (+ trailing newline).
  EXPECT_EQ(std::count(r.body.begin(), r.body.end(), '\n'), 5);
}

TEST(Service, UnknownRouteIs404) {
  DashboardService service(demo_db());
  EXPECT_EQ(service.handle("/api/nope").status, 404);
  EXPECT_EQ(service.handle("/").status, 404);
}

TEST(Http, RoundTripOverLoopback) {
  DashboardService service(demo_db());
  HttpServer server(0, HttpServer::wrap(service));
  ASSERT_GT(server.port(), 0);

  int status = 0;
  std::string content_type;
  const auto body =
      http_get(server.port(), "/api/health", &status, &content_type);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(status, 200);
  EXPECT_EQ(content_type, "application/json");
  const auto doc = json::parse(*body);
  EXPECT_EQ(doc->get_string("status"), "ok");

  const auto query = http_get(
      server.port(), "/api/query?index=job_rank_time&job_id=1", &status);
  ASSERT_TRUE(query.has_value());
  EXPECT_EQ(status, 200);
  EXPECT_NE(query->find("\"total\":4"), std::string::npos);

  const auto missing = http_get(server.port(), "/api/nope", &status);
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(status, 404);

  server.stop();
  EXPECT_GE(server.connections_handled(), 3u);
}

TEST(Http, ServesManySequentialClients) {
  DashboardService service(demo_db());
  HttpServer server(0, HttpServer::wrap(service));
  for (int i = 0; i < 32; ++i) {
    int status = 0;
    const auto body = http_get(server.port(), "/api/jobs", &status);
    ASSERT_TRUE(body.has_value()) << i;
    EXPECT_EQ(status, 200);
  }
  server.stop();
}

TEST(Service, ApiObsExposesWriterPlacementGauges) {
  // Regression for writer pinning observability: after a pinned ingest
  // drains, /api/obs (the registry's JSON twin) must carry the
  // dlc.ingest.writer.<w>.cpu and .pinned_cpu gauges with the CPU the
  // worker actually pinned to — this is the operator's only way to
  // confirm DARSHAN_LDMS_PIN placement took effect.
  util::PinPolicy policy;
  ASSERT_TRUE(util::parse_pin_policy("auto", policy));
  const std::vector<int> cpus = util::resolve_pin_cpus(policy);
  ASSERT_FALSE(cpus.empty());
  auto db = demo_db();
  {
    dsos::IngestConfig icfg;
    icfg.workers = 1;
    icfg.pin_cpus = cpus;
    dsos::IngestExecutor ex(*db, icfg);
    ex.drain();  // worker ran, pinned itself, published its gauges
  }
  DashboardService svc(db);  // default registry: the global one
  const Response r = svc.handle("/api/obs");
  EXPECT_EQ(r.status, 200);
  const auto parsed = json::parse(r.body);
  ASSERT_TRUE(parsed.has_value());
  const json::Value* metrics = parsed->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(
      metrics->get_double("dlc.ingest.writer.0.pinned_cpu", -2.0),
      static_cast<double>(cpus[0]));
  EXPECT_DOUBLE_EQ(metrics->get_double("dlc.ingest.writer.0.cpu", -2.0),
                   static_cast<double>(cpus[0]));
}

TEST(Service, RollupEndpointsNeedAnAttachedEngine) {
  DashboardService service(demo_db());
  EXPECT_EQ(service.handle("/api/rollup").status, 404);
  EXPECT_EQ(service.handle("/api/rollup/op_counts").status, 404);
}

TEST(Service, RollupStatusCellsAndPanelSource) {
  auto db = demo_db();
  rollup::RollupEngineConfig cfg;
  cfg.policies = rollup::default_rollup_policies();
  rollup::RollupEngine engine(cfg);
  engine.attach(*db);  // replays the pre-inserted demo rows
  engine.flush();
  DashboardService service(db);

  // Without the engine wired up, panels report the raw path.
  {
    const auto doc =
        json::parse(service.handle("/api/panel?module=fig5&job=1,2").body);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->get_string("source"), "raw");
  }

  service.set_rollup(&engine);

  const auto status = json::parse(service.handle("/api/rollup").body);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->find("policies")->as_array().size(), 4u);
  EXPECT_EQ(status->get_uint("late_dropped"), 0u);

  // Cells for one policy, filtered to one job/op.
  const Response cells =
      service.handle("/api/rollup/op_counts?job=1&op=read");
  ASSERT_EQ(cells.status, 200);
  const auto doc = json::parse(cells.body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("policy"), "op_counts");
  const auto& rows = doc->find("cells")->as_array();
  ASSERT_EQ(rows.size(), 1u);  // demo db: 2 ranks x 1 read each for job 1
  EXPECT_EQ(rows[0].get_uint("count"), 2u);
  EXPECT_EQ(rows[0].get_string("op"), "read");

  EXPECT_EQ(service.handle("/api/rollup/nope").status, 404);
  EXPECT_EQ(service.handle("/api/rollup/op_counts?bucket_s=45").status, 400);

  // The same panel now serves from rollup cells and says so.
  const auto served =
      json::parse(service.handle("/api/panel?module=fig5&job=1,2").body);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->get_string("source"), "rollup:op_counts");
}

TEST(Service, RollupCellMembersFollowTheCellFieldTable) {
  auto db = demo_db();
  rollup::RollupEngineConfig cfg;
  cfg.policies = rollup::default_rollup_policies();
  rollup::RollupEngine engine(cfg);
  engine.attach(*db);
  engine.flush();
  DashboardService service(db);
  service.set_rollup(&engine);
  const Response res = service.handle("/api/rollup/op_counts");
  ASSERT_EQ(res.status, 200);

  // Scan the first cell's members in wire order (json::Value sorts keys).
  json::Scanner doc(res.body);
  ASSERT_TRUE(doc.enter_object());
  std::string_view key, cells_span;
  std::string scratch;
  while (doc.next_member(key, scratch) == 1 && key != "cells") {
    ASSERT_TRUE(doc.skip_value());
  }
  ASSERT_EQ(key, "cells");
  ASSERT_TRUE(doc.value_span(cells_span));
  json::Scanner cells(cells_span);
  ASSERT_TRUE(cells.enter_array());
  ASSERT_EQ(cells.next_element(), 1);
  ASSERT_TRUE(cells.enter_object());
  std::vector<std::string> members;
  while (cells.next_member(key, scratch) == 1) {
    members.emplace_back(key);
    ASSERT_TRUE(cells.skip_value());
  }
  ASSERT_GE(members.size(), rollup::kRollupCellFields.size());
  for (std::size_t i = 0; i < rollup::kRollupCellFields.size(); ++i) {
    EXPECT_EQ(members[i], rollup::kRollupCellFields[i].name) << i;
  }
  for (const rollup::CellField& extra : rollup::kRollupRowExtraFields) {
    EXPECT_EQ(std::count(members.begin(), members.end(), extra.name), 0)
        << "row-only field served: " << extra.name;
  }
}

TEST(Service, PanelFig9WithNoJobsRunsTheRegisteredRawModule) {
  // Empty database: job_list() finds no jobs, so the rollup path cannot
  // serve fig9 and must fall through to the registered raw module — not
  // return a fabricated empty frame labeled "raw" without invoking it.
  dsos::ClusterConfig cfg;
  cfg.shard_count = 1;
  cfg.shard_attr = "rank";
  cfg.parallel_query = false;
  auto db = std::make_shared<dsos::DsosCluster>(cfg);
  db->register_schema(core::darshan_data_schema());

  rollup::RollupEngineConfig rcfg;
  rcfg.policies = rollup::default_rollup_policies();
  rollup::RollupEngine engine(rcfg);
  engine.attach(*db);
  DashboardService service(db);
  service.set_rollup(&engine);
  service.register_module("fig9",
                          [](const dsos::DsosCluster&, const Params&) {
                            analysis::DataFrame df;
                            df.add_int_column("sentinel", {42});
                            return df;
                          });

  const Response r = service.handle("/api/panel?module=fig9");
  ASSERT_EQ(r.status, 200);
  const auto doc = json::parse(r.body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("source"), "raw");
  EXPECT_NE(r.body.find("sentinel"), std::string::npos);
}

TEST(Dashboard, DefaultDashboardRendersAllPanels) {
  DashboardService service(demo_db());
  const Dashboard dash = default_io_dashboard(2);
  const std::string rendered = render_dashboard(service, dash);
  const auto doc = json::parse(rendered);
  ASSERT_TRUE(doc.has_value()) << rendered.substr(0, 200);
  const auto& panels = doc->find("panels")->as_array();
  ASSERT_EQ(panels.size(), 6u);
  bool has_alerts = false;
  for (const auto& panel : panels) {
    EXPECT_TRUE(panel.find("data") != nullptr)
        << panel.get_string("title") << ": "
        << panel.get_string("error", "(no error)");
    if (panel.get_string("title") == "Alerts") has_alerts = true;
  }
  // The alerts panel renders (empty) even with no anomaly engine
  // attached — a dashboard must not break when detection is off.
  EXPECT_TRUE(has_alerts);
}

/// The raw bytes of member `name` of the JSON object `object`.
std::string member_bytes(std::string_view object, std::string_view name) {
  json::Scanner scan(object);
  if (!scan.enter_object()) return {};
  std::string_view key, span;
  std::string scratch;
  while (scan.next_member(key, scratch) == 1) {
    if (key == name) return scan.value_span(span) ? std::string(span) : "";
    if (!scan.skip_value()) return {};
  }
  return {};
}

/// Each panel object of a rendered dashboard, as raw bytes.
std::vector<std::string> panel_bytes(const std::string& rendered) {
  const std::string panels = member_bytes(rendered, "panels");
  json::Scanner scan(panels);
  std::vector<std::string> out;
  if (!scan.enter_array()) return out;
  std::string_view span;
  while (scan.next_element() == 1 && scan.value_span(span)) {
    out.emplace_back(span);
  }
  return out;
}

TEST(Dashboard, PanelDataIsTheApiPanelData) {
  auto db = demo_db();
  rollup::RollupEngineConfig cfg;
  cfg.policies = rollup::default_rollup_policies();
  cfg.policies.push_back(anomaly::anomaly_policy());
  rollup::RollupEngine rollups(cfg);
  rollups.attach(*db);
  anomaly::AnomalyEngine anomalies;
  anomalies.attach(rollups);
  rollups.flush();
  DashboardService bare(db);
  DashboardService attached(db);
  attached.set_rollup(&rollups);
  attached.set_anomaly(&anomalies);
  const Dashboard dash = default_io_dashboard(2);
  for (const DashboardService* service : {&bare, &attached}) {
    const std::vector<std::string> panels =
        panel_bytes(render_dashboard(*service, dash));
    ASSERT_EQ(panels.size(), dash.panels.size());
    for (std::size_t i = 0; i < panels.size(); ++i) {
      const PanelDef& def = dash.panels[i];
      std::string url = "/api/panel?module=" + def.module;
      for (const auto& [k, v] : def.params) url += "&" + k + "=" + v;
      const Response r = service->handle(url);
      ASSERT_EQ(r.status, 200) << url;
      const std::string want = member_bytes(r.body, "data");
      ASSERT_FALSE(want.empty()) << url;
      EXPECT_EQ(member_bytes(panels[i], "data"), want) << url;
    }
  }
}

TEST(Dashboard, ThrowingModuleFailsOnlyItsPanel) {
  DashboardService service(demo_db());
  service.register_module("boom",
                          [](const dsos::DsosCluster&,
                             const Params&) -> analysis::DataFrame {
                            throw std::runtime_error("module blew up");
                          });
  Dashboard dash = default_io_dashboard(2);
  dash.panels.insert(dash.panels.begin() + 2,
                     PanelDef{"Broken", "boom", {{"job", "2"}}, "table"});
  dash.panels.push_back(
      PanelDef{"Bad job", "fig5", {{"job", "two"}}, "bars"});
  const std::string rendered = render_dashboard(service, dash);
  const auto doc = json::parse(rendered);
  ASSERT_TRUE(doc.has_value()) << rendered.substr(0, 200);
  const auto& panels = doc->find("panels")->as_array();
  ASSERT_EQ(panels.size(), dash.panels.size());
  for (std::size_t i = 0; i < panels.size(); ++i) {
    const bool broken = dash.panels[i].title == "Broken" ||
                        dash.panels[i].title == "Bad job";
    EXPECT_EQ(panels[i].find("data") == nullptr, broken) << i;
    EXPECT_EQ(panels[i].find("error") != nullptr, broken) << i;
  }
  EXPECT_NE(panels[2].get_string("error").find("module blew up"),
            std::string::npos);
  EXPECT_NE(panels.back().get_string("error").find("bad value for job: two"),
            std::string::npos);
}

TEST(Dashboard, EachRenderedPanelCountsAsOneRequest) {
  DashboardService service(demo_db());
  const Dashboard dash = default_io_dashboard(2);
  const std::uint64_t before = service.requests_served();
  render_dashboard(service, dash);
  EXPECT_EQ(service.requests_served() - before, dash.panels.size());
  render_dashboard(service, obs_self_dashboard());
  EXPECT_EQ(service.requests_served() - before, dash.panels.size() + 2);
}

TEST(Dashboard, BrokenPanelReportsErrorInline) {
  DashboardService service(demo_db());
  Dashboard dash;
  dash.title = "broken";
  dash.panels = {PanelDef{"nope", "missing_module", {}, "table"}};
  const std::string rendered = render_dashboard(service, dash);
  const auto doc = json::parse(rendered);
  const auto& panels = doc->find("panels")->as_array();
  ASSERT_EQ(panels.size(), 1u);
  EXPECT_FALSE(panels[0].get_string("error").empty());
}

}  // namespace
}  // namespace dlc::websvc
