// End-to-end integration test: the paper's complete story in one suite.
//
//   campaign of jobs (one anomalous) -> connector JSON -> LDMS multi-hop
//   transport -> DSOS -> anomaly detection -> temporal drill-down ->
//   metric correlation -> dashboard render over the web API -> write
//   through the durable store -> reopen -> identical answers.
#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/correlate.hpp"
#include "analysis/figures.hpp"
#include "darshan/derived.hpp"
#include "darshan/log.hpp"
#include "exp/figdata.hpp"
#include "exp/specs.hpp"
#include "json/parser.hpp"
#include "store/store.hpp"
#include "websvc/dashboard.hpp"
#include "websvc/http.hpp"
#include "workloads/mpi_io_test.hpp"

namespace dlc {
namespace {

class FullStory : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new exp::FigDataset(exp::mpiio_independent_campaign(5, 42));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static exp::FigDataset* dataset_;
};

exp::FigDataset* FullStory::dataset_ = nullptr;

TEST_F(FullStory, CampaignLandsAllJobsInDsos) {
  ASSERT_EQ(dataset_->job_ids.size(), 5u);
  // 5 jobs x 7568 events each, all decoded.
  EXPECT_EQ(dataset_->db->total_objects(), 5u * 7568u);
}

TEST_F(FullStory, AnomalyDetectedFromStoredDataAlone) {
  const analysis::DataFrame summary =
      analysis::fig7_job_summary(*dataset_->db, dataset_->job_ids);
  EXPECT_EQ(analysis::find_anomalous_job(summary, "read"),
            dataset_->anomalous_job);
  EXPECT_EQ(analysis::find_anomalous_job(summary, "write"),
            dataset_->anomalous_job);
}

TEST_F(FullStory, TemporalDrilldownShowsDegradation) {
  const analysis::DataFrame timeline =
      analysis::fig8_timeline(*dataset_->db, dataset_->anomalous_job);
  ASSERT_GT(timeline.rows(), 0u);
  // Split writes into first/last third and compare means.
  double t_end = 0;
  for (std::size_t r = 0; r < timeline.rows(); ++r) {
    t_end = std::max(t_end, timeline.get_double(r, "rel_time_s"));
  }
  RunningStats early, late;
  for (std::size_t r = 0; r < timeline.rows(); ++r) {
    if (timeline.get_string(r, "op") != "write") continue;
    const double t = timeline.get_double(r, "rel_time_s");
    if (t < t_end / 3) early.add(timeline.get_double(r, "dur_s"));
    if (t > 2 * t_end / 3) late.add(timeline.get_double(r, "dur_s"));
  }
  EXPECT_GT(late.mean(), early.mean() * 1.3);  // writes degrade over time
}

TEST_F(FullStory, DashboardServesTheAnomalyOverHttp) {
  websvc::DashboardService service(dataset_->db);
  websvc::HttpServer server(0, websvc::HttpServer::wrap(service));
  int status = 0;
  const auto body = websvc::http_get(
      server.port(),
      "/api/panel?module=fig7_summary&job=1,2,3,4,5", &status);
  ASSERT_TRUE(body.has_value());
  ASSERT_EQ(status, 200);
  const auto doc = json::parse(*body);
  ASSERT_TRUE(doc.has_value());
  // job 2's read mean stands out in the served data.
  double job2_read = 0, others_max = 0;
  for (const auto& row : doc->find("data")->find("rows")->as_array()) {
    const auto& cells = row.as_array();
    if (cells[1].as_string() != "read") continue;
    if (cells[0].as_uint() == dataset_->anomalous_job) {
      job2_read = cells[2].as_double();
    } else {
      others_max = std::max(others_max, cells[2].as_double());
    }
  }
  EXPECT_GT(job2_read, 10 * others_max);
  server.stop();

  const std::string dashboard = websvc::render_dashboard(
      service, websvc::default_io_dashboard(dataset_->anomalous_job));
  EXPECT_TRUE(json::parse(dashboard).has_value());
}

TEST_F(FullStory, PersistReloadAnswersIdentically) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dlc_integration_db")
          .string();
  std::filesystem::remove_all(dir);
  dsos::ClusterConfig cfg;
  cfg.shard_count = dataset_->db->shard_count();
  cfg.shard_attr = "rank";
  cfg.parallel_query = true;
  store::StoreConfig scfg;
  scfg.mode = store::StoreMode::kTiered;
  scfg.dir = dir;
  {
    // Every campaign row goes through a store onto disk, shard by shard,
    // and ends in the shards' write-ahead logs.
    dsos::DsosCluster written(cfg);
    written.register_schema(
        dataset_->db->shard(0).container().schema("darshan_data"));
    store::Store store(scfg);
    store.open(written);
    for (std::size_t s = 0; s < dataset_->db->shard_count(); ++s) {
      const dsos::Container& c = dataset_->db->shard(s).container();
      for (std::size_t i = 0; i < c.size(); ++i) {
        written.insert_at(s, c.object(i));
      }
    }
    store.close();
  }
  dsos::DsosCluster reloaded(cfg);
  scfg.create_dir = false;
  store::Store store(scfg);
  const store::RecoveryReport rep = store.open(reloaded);
  EXPECT_EQ(rep.rows_from_wal, dataset_->db->total_objects());
  EXPECT_EQ(reloaded.total_objects(), dataset_->db->total_objects());

  const dsos::Filter filter{{"job_id", dataset_->anomalous_job},
                            {"rank", std::int64_t{3}}};
  const auto before =
      dataset_->db->query("darshan_data", "job_rank_time", filter);
  const auto after = reloaded.query("darshan_data", "job_rank_time", filter);
  ASSERT_EQ(before.size(), after.size());
  ASSERT_FALSE(before.empty());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i]->values, after[i]->values);
  }
  store.close();
  std::filesystem::remove_all(dir);
}

TEST_F(FullStory, CorrelationNamesTheDriver) {
  // Re-run the anomalous job with system metric sampling and confirm the
  // correlation analysis points at fs congestion, not nuisance channels.
  exp::ExperimentSpec spec =
      exp::mpi_io_test_spec(simfs::FsKind::kNfs, /*collective=*/false);
  spec.node_count = 4;
  spec.ranks_per_node = 4;
  spec.job_id = 77;
  spec.decode_to_dsos = true;
  spec.sample_system_metrics = true;
  spec.metric_interval = 5 * kSecond;
  workloads::MpiIoTestConfig io;
  io.iterations = 25;
  io.block_size = 8ull * 1024 * 1024;
  io.collective = false;
  spec.workload = workloads::mpi_io_test(io);
  spec.incidents.push_back(simfs::Incident{.start = 0,
                                           .end = 800 * kSecond,
                                           .peak_factor = 3.0,
                                           .ramp = true,
                                           .applies_to =
                                               simfs::OpClass::kWrite});
  const exp::RunResult r = exp::run_experiment(spec);
  ASSERT_FALSE(r.system_metrics.empty());

  std::vector<analysis::TimeSeries> channels;
  for (const auto& series : r.system_metrics) {
    if (series.name.find("@nid00040") != std::string::npos) {
      channels.push_back(series);
    }
  }
  const analysis::DataFrame corr = analysis::correlate_durations(
      analysis::fig8_timeline(*r.dsos, spec.job_id), channels, 15.0, 25.0);
  double congestion_r = 0, nuisance_max = 0;
  for (std::size_t row = 0; row < corr.rows(); ++row) {
    if (corr.get_string(row, "op") != "write") continue;
    const double rv = std::abs(corr.get_double(row, "r"));
    if (corr.get_string(row, "metric").rfind("fs_congestion", 0) == 0) {
      congestion_r = rv;
    } else {
      nuisance_max = std::max(nuisance_max, rv);
    }
  }
  EXPECT_GT(congestion_r, 0.7);
  EXPECT_GT(congestion_r, nuisance_max);
}

TEST_F(FullStory, DarshanLogSurvivesTheSameJob) {
  // The classic post-run path still works alongside the run-time path.
  exp::ExperimentSpec spec =
      exp::mpi_io_test_spec(simfs::FsKind::kLustre, true);
  spec.node_count = 4;
  spec.ranks_per_node = 2;
  const exp::RunResult r = exp::run_experiment(spec);
  ASSERT_FALSE(r.darshan_log.records.empty());

  std::stringstream stream;
  darshan::write_log(r.darshan_log, stream);
  const auto parsed = darshan::read_log(stream);
  ASSERT_TRUE(parsed.has_value());
  const darshan::AccessPattern pattern =
      darshan::access_pattern_summary(*parsed);
  EXPECT_EQ(pattern.classification, "sequential");  // rank-strided blocks
  // Dominant access size: the collective 16 MiB MPIIO ops decompose into
  // two 8 MiB POSIX phase accesses, which outnumber the MPIIO ops 2:1.
  EXPECT_EQ(pattern.common_write_size, "4M_10M");
  const darshan::PerfEstimate perf = darshan::estimate_performance(*parsed);
  EXPECT_GT(perf.agg_perf_by_slowest_mibs, 0.0);
}

}  // namespace
}  // namespace dlc
