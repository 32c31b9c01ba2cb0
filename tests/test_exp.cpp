// Integration tests for the experiment harness: full pipeline wiring,
// campaign statistics, overhead calculus, figure datasets, table printer.
#include <gtest/gtest.h>

#include <type_traits>

#include "analysis/figures.hpp"
#include "exp/campaign.hpp"
#include "exp/figdata.hpp"
#include "exp/specs.hpp"
#include "exp/table.hpp"
#include "workloads/mpi_io_test.hpp"

namespace dlc::exp {
namespace {

// Assigning over a live RunResult would release its cluster before the
// rollup engine that still points into it; results are only ever built
// fresh or moved into containers.
static_assert(!std::is_move_assignable_v<RunResult>);
static_assert(!std::is_copy_assignable_v<RunResult>);
static_assert(std::is_move_constructible_v<RunResult>);

ExperimentSpec tiny_mpiio(simfs::FsKind fs) {
  ExperimentSpec spec = mpi_io_test_spec(fs, /*collective=*/false);
  spec.node_count = 4;
  spec.ranks_per_node = 2;
  workloads::MpiIoTestConfig cfg;
  cfg.iterations = 3;
  cfg.block_size = 1 << 20;
  cfg.collective = false;
  spec.workload = workloads::mpi_io_test(cfg);
  return spec;
}

TEST(Pipeline, EndToEndCountsAreConsistent) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kLustre);
  const RunResult r = run_experiment(spec);
  EXPECT_GT(r.runtime_s, 0.0);
  // 8 ranks x (open + 3w + 3r + flush + close) MPIIO + 6 POSIX sub-events.
  EXPECT_EQ(r.events, 8u * (1 + 3 + 3 + 1 + 1) + 8u * 6);
  // Every event published, transported (2 hops) and stored; none dropped.
  EXPECT_EQ(r.messages, r.events);
  EXPECT_EQ(r.stored, r.messages);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_GT(r.mean_latency_s, 0.0);
  EXPECT_GT(r.charged_s, 0.0);
  // The darshan summary log came back too.
  EXPECT_FALSE(r.darshan_log.records.empty());
  EXPECT_EQ(r.darshan_log.nprocs, 8u);
}

TEST(Pipeline, ConnectorDisabledPublishesNothing) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kLustre);
  spec.connector_enabled = false;
  const RunResult r = run_experiment(spec);
  EXPECT_GT(r.events, 0u);
  EXPECT_EQ(r.messages, 0u);
  EXPECT_EQ(r.stored, 0u);
  EXPECT_EQ(r.charged_s, 0.0);
}

TEST(Pipeline, DecodeToDsosStoresEveryEvent) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kNfs);
  spec.decode_to_dsos = true;
  const RunResult r = run_experiment(spec);
  ASSERT_TRUE(r.dsos != nullptr);
  EXPECT_EQ(r.dsos->total_objects(), r.messages);
}

TEST(Pipeline, ParallelIngestMatchesSerial) {
  // DARSHAN_LDMS_INGEST_THREADS end to end: the executor path must store
  // the same rows in the same global query order as inline insertion.
  ExperimentSpec serial = tiny_mpiio(simfs::FsKind::kNfs);
  serial.decode_to_dsos = true;
  ExperimentSpec parallel = serial;
  parallel.connector.ingest_threads = 4;
  const RunResult a = run_experiment(serial);
  const RunResult b = run_experiment(parallel);
  ASSERT_TRUE(a.dsos != nullptr);
  ASSERT_TRUE(b.dsos != nullptr);
  EXPECT_EQ(a.dsos->total_objects(), b.dsos->total_objects());
  const auto ra = a.dsos->query("darshan_data", "job_rank_time");
  const auto rb = b.dsos->query("darshan_data", "job_rank_time");
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i]->as_int("rank"), rb[i]->as_int("rank"));
    EXPECT_EQ(ra[i]->as_string("op"), rb[i]->as_string("op"));
    EXPECT_EQ(ra[i]->as_double("seg_timestamp"),
              rb[i]->as_double("seg_timestamp"));
  }
}

TEST(Pipeline, SameSeedSameResult) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kNfs);
  spec.seed = 123;
  spec.epoch_seed = 77;
  const RunResult a = run_experiment(spec);
  const RunResult b = run_experiment(spec);
  EXPECT_DOUBLE_EQ(a.runtime_s, b.runtime_s);
  EXPECT_EQ(a.events, b.events);
}

TEST(Pipeline, EpochSeedChangesRuntime) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kNfs);
  spec.epoch_seed = 1;
  const RunResult a = run_experiment(spec);
  spec.epoch_seed = 2;
  const RunResult b = run_experiment(spec);
  EXPECT_NE(a.runtime_s, b.runtime_s);  // different FS weather
}

TEST(Pipeline, MissingWorkloadThrows) {
  ExperimentSpec spec;
  EXPECT_THROW(run_experiment(spec), std::invalid_argument);
}

TEST(Pipeline, OversizedJobThrows) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kNfs);
  spec.node_count = 99;
  EXPECT_THROW(run_experiment(spec), std::invalid_argument);
}

TEST(Pipeline, TinyTransportQueueDropsBestEffort) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kLustre);
  spec.transport.queue_capacity = 1;
  spec.transport.hop_latency = 10 * kSecond;  // drain far slower than I/O
  const RunResult r = run_experiment(spec);
  EXPECT_GT(r.dropped, 0u);
  EXPECT_LT(r.stored, r.messages);
}

TEST(Campaign, RepeatedRunsVaryAndAverage) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kNfs);
  const RepeatedResult rr = run_repeated(spec, 4, /*epoch=*/500);
  EXPECT_EQ(rr.runs.size(), 4u);
  EXPECT_EQ(rr.runtime_s.count(), 4u);
  EXPECT_GT(rr.runtime_s.mean(), 0.0);
  // Epoch jitter between repetitions -> non-zero spread.
  EXPECT_GT(rr.runtime_s.stddev(), 0.0);
}

TEST(Campaign, OverheadRowComputesPercent) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kLustre);
  // Make the connector cost large so overhead must be positive even
  // across epochs.
  spec.connector.costs.format_base = 50 * kMillisecond;
  CampaignConfig campaign;
  campaign.repetitions = 2;
  campaign.baseline_epoch = 1;
  campaign.connector_epoch = 2;
  const OverheadRow row = measure_overhead("test", spec, campaign);
  EXPECT_EQ(row.label, "test");
  EXPECT_GT(row.dc_runtime_s, row.darshan_runtime_s);
  EXPECT_GT(row.overhead_pct, 0.0);
  EXPECT_NEAR(row.overhead_pct,
              (row.dc_runtime_s - row.darshan_runtime_s) /
                  row.darshan_runtime_s * 100.0,
              1e-9);
  EXPECT_GT(row.avg_messages, 0.0);
}

TEST(Campaign, SameEpochIsolatesConnectorCost) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kLustre);
  spec.connector.format = core::FormatMode::kNone;
  CampaignConfig campaign;
  campaign.repetitions = 3;
  campaign.baseline_epoch = 42;
  campaign.connector_epoch = 42;  // same weather
  const OverheadRow row = measure_overhead("ablation", spec, campaign);
  // Publish-only cost is sub-percent on this workload.
  EXPECT_LT(std::abs(row.overhead_pct), 1.0);
  EXPECT_GE(row.overhead_pct, 0.0);
}

TEST(FigData, MpiioCampaignProducesQueryableAnomaly) {
  const FigDataset data = mpiio_independent_campaign(3, 7);
  EXPECT_EQ(data.job_ids.size(), 3u);
  EXPECT_EQ(data.anomalous_job, 2u);
  EXPECT_GT(data.db->total_objects(), 0u);
  const analysis::DataFrame summary =
      analysis::fig7_job_summary(*data.db, data.job_ids);
  EXPECT_EQ(analysis::find_anomalous_job(summary, "read"), 2u);
}

TEST(FigData, HaccCampaignStoresAllJobs) {
  const FigDataset data = hacc_campaign(simfs::FsKind::kLustre, 100'000, 3, 5);
  EXPECT_EQ(data.job_ids.size(), 3u);
  const analysis::DataFrame counts =
      analysis::fig5_op_counts(*data.db, data.job_ids);
  EXPECT_GT(counts.rows(), 0u);
  // Every op row aggregated over exactly 3 jobs.
  for (std::size_t r = 0; r < counts.rows(); ++r) {
    EXPECT_GT(counts.get_double(r, "mean_count"), 0.0);
  }
}

TEST(Specs, PaperSpecsAreRunnable) {
  // Smoke: each paper spec builds a valid pipeline (scaled down where the
  // full size would be slow).
  {
    ExperimentSpec spec = mpi_io_test_spec(simfs::FsKind::kLustre, true);
    spec.node_count = 2;
    spec.ranks_per_node = 1;
    EXPECT_NO_THROW(run_experiment(spec));
  }
  {
    ExperimentSpec spec = hacc_io_spec(simfs::FsKind::kNfs, 10'000);
    spec.node_count = 2;
    spec.ranks_per_node = 1;
    EXPECT_NO_THROW(run_experiment(spec));
  }
  {
    ExperimentSpec spec = hmmer_spec(simfs::FsKind::kLustre, 0.005);
    EXPECT_NO_THROW(run_experiment(spec));
  }
  {
    ExperimentSpec spec = sw4_spec(simfs::FsKind::kLustre);
    spec.node_count = 2;
    spec.ranks_per_node = 1;
    EXPECT_NO_THROW(run_experiment(spec));
  }
}


TEST(Pipeline, SystemMetricsCollectedAndPlausible) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kNfs);
  spec.sample_system_metrics = true;
  spec.metric_interval = 5 * kSecond;
  const RunResult r = run_experiment(spec);
  // 3 channels x 4 nodes.
  ASSERT_EQ(r.system_metrics.size(), 12u);
  bool saw_congestion = false;
  for (const auto& series : r.system_metrics) {
    EXPECT_FALSE(series.t.empty()) << series.name;
    EXPECT_EQ(series.t.size(), series.v.size());
    for (std::size_t i = 1; i < series.t.size(); ++i) {
      EXPECT_GT(series.t[i], series.t[i - 1]);  // strictly increasing time
    }
    if (series.name.rfind("fs_congestion@", 0) == 0) {
      saw_congestion = true;
      for (double v : series.v) EXPECT_GT(v, 0.0);
    }
  }
  EXPECT_TRUE(saw_congestion);
}

TEST(Pipeline, MetricSamplerSeesInjectedIncident) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kNfs);
  spec.sample_system_metrics = true;
  spec.metric_interval = 2 * kSecond;
  spec.variability.epoch_sigma = 0;
  spec.variability.ar_sigma = 0;
  spec.incidents.push_back(simfs::Incident{.start = 0,
                                           .end = 10'000 * kSecond,
                                           .peak_factor = 5.0,
                                           .ramp = false,
                                           .applies_to =
                                               simfs::OpClass::kWrite});
  const RunResult r = run_experiment(spec);
  for (const auto& series : r.system_metrics) {
    if (series.name.rfind("fs_congestion@", 0) == 0) {
      for (double v : series.v) EXPECT_DOUBLE_EQ(v, 5.0);
    }
  }
}


TEST(Campaign, InterleavedPairsOutWeather) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kNfs);
  spec.connector.format = core::FormatMode::kNone;  // near-zero true cost
  CampaignConfig drifted;
  drifted.repetitions = 3;
  drifted.baseline_epoch = 100;
  drifted.connector_epoch = 900;  // different weather -> noisy overhead
  CampaignConfig interleaved = drifted;
  interleaved.interleaved = true;

  const OverheadRow noisy = measure_overhead("noisy", spec, drifted);
  const OverheadRow clean = measure_overhead("clean", spec, interleaved);
  // Paired runs isolate the (tiny, non-negative) publish-only cost.
  EXPECT_GE(clean.overhead_pct, 0.0);
  EXPECT_LT(clean.overhead_pct, 1.0);
  // And it is at least as tight as the cross-campaign estimate.
  EXPECT_LE(std::abs(clean.overhead_pct), std::abs(noisy.overhead_pct) + 1.0);
  EXPECT_GT(clean.avg_messages, 0.0);
}


TEST(Pipeline, HeatmapSnapshotTracksWrites) {
  ExperimentSpec spec = tiny_mpiio(simfs::FsKind::kLustre);
  const RunResult r = run_experiment(spec);
  ASSERT_EQ(r.heatmap_write_bytes.size(), 8u);  // one row per rank
  double written = 0, read = 0;
  for (const auto& row : r.heatmap_write_bytes) {
    for (double v : row) written += v;
  }
  for (const auto& row : r.heatmap_read_bytes) {
    for (double v : row) read += v;
  }
  // 8 ranks x 3 iterations x 1 MiB per phase; the heatmap counts each
  // access once at the issuing (MPIIO) layer — the POSIX sub-events do
  // not double-count bytes.
  EXPECT_DOUBLE_EQ(written, 1.0 * 8 * 3 * (1 << 20));
  EXPECT_DOUBLE_EQ(read, 1.0 * 8 * 3 * (1 << 20));
}

TEST(Table, RendersAlignedColumns) {
  TextTable table({"Config", "Runtime", "Overhead"});
  table.add_row({"NFS/coll", cell_f(1376.67), cell_pct(-1.55)});
  table.add_row({"Lustre", cell_f(249.97), cell_pct(8.41)});
  const std::string out = table.render();
  EXPECT_NE(out.find("NFS/coll"), std::string::npos);
  EXPECT_NE(out.find("1376.67"), std::string::npos);
  EXPECT_NE(out.find("8.41%"), std::string::npos);
  // Header + separator + 2 rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, CellHelpers) {
  EXPECT_EQ(cell_f(3.14159, 2), "3.14");
  EXPECT_EQ(cell_pct(-1.5, 1), "-1.5%");
  EXPECT_EQ(cell_u(42), "42");
}

}  // namespace
}  // namespace dlc::exp
