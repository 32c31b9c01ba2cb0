// HPC Web Services end to end: run a monitored campaign, serve the event
// database over HTTP, and query it the way a Grafana data source would.
// Exits 1 when the rendered dashboard does not parse or a panel carries
// an "error" (ctest example_web_dashboard).
#include <cstdio>

#include "exp/figdata.hpp"
#include "json/parser.hpp"
#include "websvc/dashboard.hpp"
#include "websvc/http.hpp"

using namespace dlc;

int main() {
  std::printf("== HPC Web Services: DSOS-backed dashboard over HTTP ==\n\n");

  // Populate the database with the Fig. 7-9 campaign (job 2 anomalous).
  const exp::FigDataset data = exp::mpiio_independent_campaign(5, 42);
  websvc::DashboardService service(data.db);
  websvc::HttpServer server(0, websvc::HttpServer::wrap(service));
  std::printf("serving %zu events on http://127.0.0.1:%u\n\n",
              data.db->total_objects(), server.port());

  // A front end discovers what's there...
  int status = 0;
  auto body = websvc::http_get(server.port(), "/api/jobs", &status);
  std::printf("GET /api/jobs -> %d\n%s\n\n", status,
              body.value_or("(failed)").c_str());

  // ...pulls a panel...
  body = websvc::http_get(server.port(),
                          "/api/panel?module=fig7_summary&job=1,2,3,4,5",
                          &status);
  std::printf("GET /api/panel?module=fig7_summary -> %d (%zu bytes)\n", status,
              body ? body->size() : 0);
  if (body) {
    const auto doc = json::parse(*body);
    const auto& rows = doc->find("data")->find("rows")->as_array();
    for (const auto& row : rows) {
      const auto& cells = row.as_array();
      std::printf("  job %lld %-5s mean %.3fs\n",
                  static_cast<long long>(cells[0].as_int()),
                  cells[1].as_string().c_str(), cells[2].as_double());
    }
  }

  // ...and drills into the anomalous job's raw events.
  body = websvc::http_get(
      server.port(),
      "/api/query?index=job_rank_time&job_id=2&rank=0&op=read&limit=3",
      &status);
  std::printf("\nGET /api/query?...job_id=2&rank=0&op=read&limit=3 -> %d\n%s\n",
              status, body.value_or("(failed)").c_str());

  // Server-side dashboard render (what "share this dashboard" exports).
  const std::string dashboard = websvc::render_dashboard(
      service, websvc::default_io_dashboard(data.anomalous_job));
  std::printf("\nrendered dashboard JSON: %zu bytes, %llu requests served\n",
              dashboard.size(),
              static_cast<unsigned long long>(service.requests_served()));
  server.stop();

  const auto doc = json::parse(dashboard);
  const json::Value* panels = doc ? doc->find("panels") : nullptr;
  if (panels == nullptr || !panels->is_array()) {
    std::fprintf(stderr, "rendered dashboard does not parse\n");
    return 1;
  }
  int failed = 0;
  for (const json::Value& panel : panels->as_array()) {
    if (panel.find("error") != nullptr) {
      std::fprintf(stderr, "panel %s failed: %s\n",
                   panel.get_string("title").c_str(),
                   panel.get_string("error").c_str());
      ++failed;
    }
  }
  std::printf("%zu panels, %d failed\n", panels->as_array().size(), failed);
  return failed == 0 ? 0 : 1;
}
