// Tests for the analysis layer: DataFrame ops (filter, group_by, sort),
// figure pipelines on synthetic DSOS data, renderers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/correlate.hpp"
#include "analysis/figures.hpp"
#include "analysis/frame.hpp"
#include "analysis/render.hpp"
#include "core/schema_darshan.hpp"
#include "json/parser.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace dlc::analysis {
namespace {

DataFrame sample_frame() {
  DataFrame df;
  df.add_int_column("job", {1, 1, 1, 2, 2, 2});
  df.add_string_column("op", {"read", "write", "read", "read", "write",
                              "write"});
  df.add_double_column("dur", {0.1, 1.0, 0.3, 0.2, 2.0, 4.0});
  return df;
}

TEST(Frame, BasicAccessors) {
  const DataFrame df = sample_frame();
  EXPECT_EQ(df.rows(), 6u);
  EXPECT_EQ(df.cols(), 3u);
  EXPECT_TRUE(df.has_column("op"));
  EXPECT_FALSE(df.has_column("nope"));
  EXPECT_EQ(df.column_type("job"), ColType::kInt);
  EXPECT_EQ(df.column_type("dur"), ColType::kDouble);
  EXPECT_EQ(df.column_type("op"), ColType::kString);
  EXPECT_EQ(df.get_int(3, "job"), 2);
  EXPECT_EQ(df.get_string(1, "op"), "write");
  EXPECT_DOUBLE_EQ(df.get_number(1, "job"), 1.0);  // int promotion
  EXPECT_THROW(df.get_int(0, "nope"), std::out_of_range);
}

TEST(Frame, ColumnLengthMismatchThrows) {
  DataFrame df;
  df.add_int_column("a", {1, 2, 3});
  EXPECT_THROW(df.add_int_column("b", {1}), std::invalid_argument);
}

TEST(Frame, GroupByMultiKeyAggregates) {
  const DataFrame df = sample_frame();
  const DataFrame agg = df.group_by(
      {"job", "op"},
      {{.column = "", .op = Agg::kCount, .out_name = "n"},
       {.column = "dur", .op = Agg::kMean, .out_name = "mean"},
       {.column = "dur", .op = Agg::kSum, .out_name = "total"},
       {.column = "dur", .op = Agg::kMax, .out_name = "max"}});
  ASSERT_EQ(agg.rows(), 4u);  // (1,read),(1,write),(2,read),(2,write)
  // Deterministic (key-sorted) order: find (1, read).
  bool found = false;
  for (std::size_t r = 0; r < agg.rows(); ++r) {
    if (agg.get_int(r, "job") == 1 && agg.get_string(r, "op") == "read") {
      EXPECT_DOUBLE_EQ(agg.get_double(r, "n"), 2.0);
      EXPECT_DOUBLE_EQ(agg.get_double(r, "mean"), 0.2);
      EXPECT_DOUBLE_EQ(agg.get_double(r, "total"), 0.4);
      EXPECT_DOUBLE_EQ(agg.get_double(r, "max"), 0.3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Frame, GroupByStdAndCi) {
  DataFrame df;
  df.add_string_column("k", {"a", "a", "a", "a", "a"});
  df.add_double_column("v", {1, 2, 3, 4, 5});
  const DataFrame agg = df.group_by(
      {"k"}, {{.column = "v", .op = Agg::kStd, .out_name = "sd"},
              {.column = "v", .op = Agg::kCi95, .out_name = "ci"}});
  ASSERT_EQ(agg.rows(), 1u);
  EXPECT_NEAR(agg.get_double(0, "sd"), std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(agg.get_double(0, "ci"), 2.776 * std::sqrt(0.5), 1e-9);
}

TEST(Frame, SortByNumericAndString) {
  const DataFrame df = sample_frame();
  const DataFrame by_dur = df.sort_by("dur");
  for (std::size_t r = 1; r < by_dur.rows(); ++r) {
    EXPECT_LE(by_dur.get_double(r - 1, "dur"), by_dur.get_double(r, "dur"));
  }
  const DataFrame desc = df.sort_by("dur", /*descending=*/true);
  EXPECT_DOUBLE_EQ(desc.get_double(0, "dur"), 4.0);
  const DataFrame by_op = df.sort_by("op");
  EXPECT_EQ(by_op.get_string(0, "op"), "read");
  EXPECT_EQ(by_op.get_string(5, "op"), "write");
}

TEST(Frame, HeadAndCsv) {
  const DataFrame df = sample_frame();
  EXPECT_EQ(df.head(2).rows(), 2u);
  EXPECT_EQ(df.head(100).rows(), 6u);
  const std::string csv = df.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "job,op,dur");
  EXPECT_NE(csv.find("1,read,"), std::string::npos);
}

TEST(Frame, NumbersExtractsColumn) {
  const DataFrame df = sample_frame();
  const auto durs = df.numbers("dur");
  ASSERT_EQ(durs.size(), 6u);
  EXPECT_DOUBLE_EQ(durs[5], 4.0);
  const auto jobs = df.numbers("job");
  EXPECT_DOUBLE_EQ(jobs[0], 1.0);
}

// ------------------------------------------------------- figure helpers ---

/// Builds a DSOS cluster holding synthetic darshan_data rows.
struct SyntheticDb {
  std::shared_ptr<dsos::DsosCluster> db;
  dsos::SchemaPtr schema;

  SyntheticDb() {
    dsos::ClusterConfig cfg;
    cfg.shard_count = 2;
    cfg.parallel_query = false;
    db = std::make_shared<dsos::DsosCluster>(cfg);
    schema = core::darshan_data_schema();
    db->register_schema(schema);
  }

  void add(std::uint64_t job, std::int64_t rank, const std::string& node,
           const std::string& op, double ts, double dur, std::int64_t len) {
    db->insert(dsos::make_object(
        schema,
        {std::string("POSIX"), std::uint64_t{1}, node, std::int64_t{0},
         std::string("N/A"), rank, std::int64_t{-1}, std::uint64_t{42},
         std::string("N/A"), std::int64_t{len - 1}, std::string("MOD"), job,
         op, std::int64_t{1}, std::int64_t{0}, std::int64_t{-1}, dur, len,
         std::int64_t{-1}, std::int64_t{-1}, std::int64_t{-1},
         std::string("N/A"), std::int64_t{-1}, ts}));
  }
};

TEST(Figures, Fig5CountsOpsAcrossJobs) {
  SyntheticDb s;
  // job 1: 2 reads, 1 write; job 2: 4 reads, 1 write.
  s.add(1, 0, "n0", "read", 1.0, 0.1, 10);
  s.add(1, 0, "n0", "read", 2.0, 0.1, 10);
  s.add(1, 0, "n0", "write", 3.0, 0.1, 10);
  for (int i = 0; i < 4; ++i) s.add(2, 0, "n0", "read", 1.0 + i, 0.1, 10);
  s.add(2, 0, "n0", "write", 9.0, 0.1, 10);

  const DataFrame counts = fig5_op_counts(*s.db, {1, 2});
  ASSERT_EQ(counts.rows(), 2u);  // read, write
  for (std::size_t r = 0; r < counts.rows(); ++r) {
    if (counts.get_string(r, "op") == "read") {
      EXPECT_DOUBLE_EQ(counts.get_double(r, "mean_count"), 3.0);
      EXPECT_GT(counts.get_double(r, "ci95"), 0.0);
    } else {
      EXPECT_DOUBLE_EQ(counts.get_double(r, "mean_count"), 1.0);
      EXPECT_DOUBLE_EQ(counts.get_double(r, "ci95"), 0.0);
    }
  }
}

TEST(Figures, Fig6CountsPerNodeOpensCloses) {
  SyntheticDb s;
  s.add(1, 0, "nodeA", "open", 1.0, 0.0, -1);
  s.add(1, 0, "nodeA", "open", 2.0, 0.0, -1);
  s.add(1, 1, "nodeB", "open", 1.5, 0.0, -1);
  s.add(1, 0, "nodeA", "close", 3.0, 0.0, -1);
  s.add(1, 0, "nodeA", "read", 2.5, 0.1, 10);  // excluded
  const DataFrame per_node = fig6_requests_per_node(*s.db, {1});
  ASSERT_EQ(per_node.rows(), 3u);  // (A,open)(A,close)(B,open)
  double a_open = 0;
  for (std::size_t r = 0; r < per_node.rows(); ++r) {
    if (per_node.get_string(r, "ProducerName") == "nodeA" &&
        per_node.get_string(r, "op") == "open") {
      a_open = per_node.get_double(r, "count");
    }
  }
  EXPECT_DOUBLE_EQ(a_open, 2.0);
}

TEST(Figures, Fig7RankDurationsAndAnomaly) {
  SyntheticDb s;
  // Jobs 1,3,4: fast reads.  Job 2: slow reads.
  for (std::uint64_t job : {1u, 3u, 4u}) {
    s.add(job, 0, "n0", "read", 1.0, 0.05, 10);
    s.add(job, 1, "n0", "read", 1.0, 0.05, 10);
  }
  s.add(2, 0, "n0", "read", 1.0, 6.75, 10);
  s.add(2, 1, "n0", "read", 1.0, 6.75, 10);

  const DataFrame summary = fig7_job_summary(*s.db, {1, 2, 3, 4});
  EXPECT_EQ(find_anomalous_job(summary, "read"), 2u);

  const DataFrame ranks = fig7_rank_durations(*s.db, {2});
  ASSERT_EQ(ranks.rows(), 2u);
  EXPECT_DOUBLE_EQ(ranks.get_double(0, "mean_dur"), 6.75);
  EXPECT_DOUBLE_EQ(ranks.get_double(0, "count"), 1.0);
}

TEST(Figures, AnomalyNeedsThreeJobs) {
  SyntheticDb s;
  s.add(1, 0, "n0", "read", 1.0, 0.05, 10);
  s.add(2, 0, "n0", "read", 1.0, 9.0, 10);
  const DataFrame summary = fig7_job_summary(*s.db, {1, 2});
  EXPECT_EQ(find_anomalous_job(summary, "read"), 0u);
}

TEST(Figures, Fig8TimelineIsRelativeAndSorted) {
  SyntheticDb s;
  s.add(1, 0, "n0", "write", 100.0, 1.0, 10);
  s.add(1, 1, "n0", "write", 105.0, 2.0, 10);
  s.add(1, 0, "n0", "read", 103.0, 0.5, 10);
  s.add(1, 0, "n0", "open", 99.0, 0.0, -1);  // excluded from timeline
  const DataFrame tl = fig8_timeline(*s.db, 1);
  ASSERT_EQ(tl.rows(), 3u);
  EXPECT_DOUBLE_EQ(tl.get_double(0, "rel_time_s"), 0.0);
  EXPECT_DOUBLE_EQ(tl.get_double(1, "rel_time_s"), 3.0);
  EXPECT_DOUBLE_EQ(tl.get_double(2, "rel_time_s"), 5.0);
  EXPECT_EQ(tl.get_string(1, "op"), "read");
}

TEST(Figures, Fig9BucketsCountsAndBytes) {
  SyntheticDb s;
  s.add(1, 0, "n0", "write", 1.0, 0.1, 100);
  s.add(1, 1, "n0", "write", 2.0, 0.1, 100);
  s.add(1, 0, "n0", "write", 15.0, 0.1, 100);
  s.add(1, 0, "n0", "read", 16.0, 0.1, 50);
  const DataFrame buckets = fig9_throughput_buckets(*s.db, 1, 10.0);
  ASSERT_EQ(buckets.rows(), 3u);  // [0,10)write, [10,20)write, [10,20)read
  EXPECT_DOUBLE_EQ(buckets.get_double(0, "bucket_s"), 0.0);
  EXPECT_DOUBLE_EQ(buckets.get_double(0, "bytes"), 200.0);
  EXPECT_DOUBLE_EQ(buckets.get_double(0, "count"), 2.0);
  // Buckets ordered numerically.
  for (std::size_t r = 1; r < buckets.rows(); ++r) {
    EXPECT_LE(buckets.get_double(r - 1, "bucket_s"),
              buckets.get_double(r, "bucket_s"));
  }
}

TEST(Figures, EmptyDbYieldsEmptyFrames) {
  SyntheticDb s;
  EXPECT_EQ(fig5_op_counts(*s.db, {1}).rows(), 0u);
  EXPECT_EQ(fig8_timeline(*s.db, 1).rows(), 0u);
  EXPECT_EQ(fig9_throughput_buckets(*s.db, 1).rows(), 0u);
}

// -------------------------------------------------------------- render ----

TEST(Render, AsciiBarChartScalesAndLabels) {
  const std::string chart =
      ascii_bar_chart({"read", "write"}, {10.0, 20.0}, {1.0, 2.0}, 40);
  EXPECT_NE(chart.find("read"), std::string::npos);
  EXPECT_NE(chart.find("20.00 +/- 2.00"), std::string::npos);
  // write bar is full width, read bar roughly half.
  const auto lines = dlc::split(chart, '\n');
  const auto hashes = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '#');
  };
  EXPECT_EQ(hashes(lines[1]), 40);
  EXPECT_NEAR(static_cast<double>(hashes(lines[0])), 20.0, 1.0);
}

TEST(Render, AsciiBarChartHandlesBadInput) {
  EXPECT_TRUE(ascii_bar_chart({}, {}).empty());
  EXPECT_TRUE(ascii_bar_chart({"a"}, {1.0, 2.0}).empty());
}

TEST(Render, AsciiScatterPlacesGlyphs) {
  ScatterSeries s{'x', {0.0, 1.0}, {0.0, 1.0}};
  const std::string plot = ascii_scatter({s}, 10, 5, "t", "v");
  EXPECT_NE(plot.find('x'), std::string::npos);
  EXPECT_NE(plot.find("t: [0, 1]"), std::string::npos);
  EXPECT_EQ(ascii_scatter({}, 10, 5), "(no data)\n");
}

TEST(Render, GnuplotScriptContainsSeriesAndData) {
  DataFrame df;
  df.add_double_column("t", {1.0, 2.0});
  df.add_double_column("v", {10.0, 20.0});
  df.add_string_column("op", {"read", "write"});
  const std::string script = gnuplot_script(df, "t", "v", "op", "demo");
  EXPECT_NE(script.find("set title \"demo\""), std::string::npos);
  EXPECT_NE(script.find("title \"read\""), std::string::npos);
  EXPECT_NE(script.find("2 20"), std::string::npos);
}

TEST(Render, GrafanaPanelJsonIsValidJson) {
  DataFrame df;
  df.add_double_column("t", {1.0, 2.0, 3.0});
  df.add_double_column("v", {10.0, 20.0, 30.0});
  df.add_string_column("op", {"read", "write", "read"});
  const std::string panel = grafana_panel_json(df, "t", "v", "op", "p");
  const auto doc = json::parse(panel);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("title"), "p");
  const auto& series = doc->find("series")->as_array();
  ASSERT_EQ(series.size(), 2u);  // read, write
  EXPECT_EQ(series[0].get_string("target"), "read");
  EXPECT_EQ(series[0].find("datapoints")->as_array().size(), 2u);
}


// ----------------------------------------------------------- correlate ----

TEST(Correlate, PearsonKnownValues) {
  EXPECT_NEAR(*pearson({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(*pearson({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
  const auto r = pearson({1, 2, 3, 4, 5}, {2, 1, 4, 3, 5});
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(*r, 0.5);
  EXPECT_LT(*r, 1.0);
}

TEST(Correlate, PearsonDegenerateCases) {
  EXPECT_FALSE(pearson({1, 2}, {1, 2}).has_value());       // too few
  EXPECT_FALSE(pearson({1, 1, 1}, {1, 2, 3}).has_value()); // zero variance
  EXPECT_FALSE(pearson({1, 2, 3}, {5, 5, 5}).has_value());
}

TEST(Correlate, AlignNearestPicksClosestWithinGap) {
  TimeSeries series;
  series.name = "m";
  series.t = {0, 10, 20, 30};
  series.v = {100, 110, 120, 130};
  const AlignedPairs pairs =
      align_nearest(series, {1.0, 14.0, 26.0, 95.0}, {1, 2, 3, 4}, 5.0);
  ASSERT_EQ(pairs.metric.size(), 3u);  // 95.0 has no neighbour within 5s
  EXPECT_DOUBLE_EQ(pairs.metric[0], 100);
  EXPECT_DOUBLE_EQ(pairs.metric[1], 110);
  EXPECT_DOUBLE_EQ(pairs.metric[2], 130);  // 26 -> 30 closer than 20
  EXPECT_DOUBLE_EQ(pairs.value[2], 3);
}

TEST(Correlate, AlignNearestEmptySeries) {
  const AlignedPairs pairs = align_nearest(TimeSeries{}, {1.0}, {1.0});
  EXPECT_TRUE(pairs.metric.empty());
}

TEST(Correlate, CorrelateDurationsFindsDriver) {
  // Timeline where write duration tracks a congestion series exactly and
  // a noise series does not.
  DataFrame timeline;
  DataFrame::DoubleCol t, dur;
  DataFrame::StringCol op;
  DataFrame::IntCol rank;
  Rng rng(3);
  TimeSeries congestion{"congestion", {}, {}};
  TimeSeries noise{"noise", {}, {}};
  for (int i = 0; i < 60; ++i) {
    const double time = i * 10.0;
    const double level = 1.0 + 0.05 * i;
    congestion.t.push_back(time);
    congestion.v.push_back(level);
    noise.t.push_back(time);
    noise.v.push_back(rng.normal(5.0, 1.0));
    t.push_back(time);
    dur.push_back(level * 2.0 + rng.normal(0.0, 0.05));
    op.push_back("write");
    rank.push_back(0);
  }
  timeline.add_double_column("rel_time_s", std::move(t));
  timeline.add_double_column("dur_s", std::move(dur));
  timeline.add_string_column("op", std::move(op));
  timeline.add_int_column("rank", std::move(rank));

  const DataFrame corr =
      correlate_durations(timeline, {congestion, noise}, 6.0);
  ASSERT_EQ(corr.rows(), 2u);
  double r_congestion = 0, r_noise = 0;
  for (std::size_t r = 0; r < corr.rows(); ++r) {
    if (corr.get_string(r, "metric") == "congestion") {
      r_congestion = corr.get_double(r, "r");
    } else {
      r_noise = corr.get_double(r, "r");
    }
  }
  EXPECT_GT(r_congestion, 0.95);
  EXPECT_LT(std::abs(r_noise), 0.5);
}

TEST(Correlate, DegenerateDurationsReportZero) {
  DataFrame timeline;
  timeline.add_double_column("rel_time_s", {0, 10, 20, 30});
  timeline.add_double_column("dur_s", {0.05, 0.05, 0.05, 0.05});
  timeline.add_string_column("op", {"read", "read", "read", "read"});
  timeline.add_int_column("rank", {0, 0, 0, 0});
  TimeSeries m{"m", {0, 10, 20, 30}, {1, 2, 3, 4}};
  const DataFrame corr = correlate_durations(timeline, {m}, 6.0);
  ASSERT_EQ(corr.rows(), 1u);
  EXPECT_DOUBLE_EQ(corr.get_double(0, "r"), 0.0);
}

TEST(Correlate, BucketingSmoothsNoise) {
  // Event durations = trend + heavy per-event noise; bucket means should
  // correlate far better than raw events.
  DataFrame timeline;
  DataFrame::DoubleCol t, dur;
  DataFrame::StringCol op;
  DataFrame::IntCol rank;
  Rng rng(9);
  TimeSeries trend{"trend", {}, {}};
  for (int i = 0; i < 400; ++i) {
    const double time = i * 1.0;
    t.push_back(time);
    dur.push_back(1.0 + 0.01 * i + rng.normal(0.0, 1.0));
    op.push_back("write");
    rank.push_back(0);
  }
  for (int i = 0; i < 40; ++i) {
    trend.t.push_back(i * 10.0 + 5.0);
    trend.v.push_back(1.0 + 0.1 * i);
  }
  timeline.add_double_column("rel_time_s", std::move(t));
  timeline.add_double_column("dur_s", std::move(dur));
  timeline.add_string_column("op", std::move(op));
  timeline.add_int_column("rank", std::move(rank));

  const double raw =
      correlate_durations(timeline, {trend}, 6.0).get_double(0, "r");
  const double bucketed =
      correlate_durations(timeline, {trend}, 6.0, 20.0).get_double(0, "r");
  EXPECT_GT(bucketed, raw);
  EXPECT_GT(bucketed, 0.9);
}

TEST(Correlate, RollingMeanAndOutliers) {
  const std::vector<double> v{1, 1, 1, 10, 1, 1, 1};
  const auto smooth = rolling_mean(v, 3);
  ASSERT_EQ(smooth.size(), v.size());
  EXPECT_NEAR(smooth[3], 4.0, 1e-12);
  EXPECT_NEAR(smooth[0], 1.0, 1e-12);
  EXPECT_EQ(rolling_mean(v, 1), v);

  const auto mask = outliers(v, 1.5);
  EXPECT_TRUE(mask[3]);
  EXPECT_FALSE(mask[0]);
  // Constant vector: no outliers, no NaNs.
  const auto flat = outliers({2, 2, 2, 2});
  for (bool b : flat) EXPECT_FALSE(b);
}


TEST(Render, AsciiHeatmapShadesByIntensity) {
  const std::vector<std::vector<double>> rows = {
      {0.0, 5.0, 10.0},
      {10.0, 0.0, 0.0},
  };
  const std::string map = ascii_heatmap(rows, {"rank0", "rank1"});
  const auto lines = dlc::split(map, '\n');
  ASSERT_GE(lines.size(), 2u);
  // Max cells render as '@', zero cells as ' '.
  EXPECT_NE(lines[0].find('@'), std::string::npos);
  EXPECT_NE(lines[1].find('@'), std::string::npos);
  EXPECT_NE(lines[0].find("rank0"), std::string::npos);
  // Row 0 first cell is blank (zero intensity).
  const std::size_t bar = lines[0].find('|');
  EXPECT_EQ(lines[0][bar + 1], ' ');
}

TEST(Render, AsciiHeatmapHandlesRaggedAndEmpty) {
  EXPECT_EQ(ascii_heatmap({}), "(no data)\n");
  const std::string map = ascii_heatmap({{1.0, 2.0, 3.0}, {4.0}});
  const auto lines = dlc::split(map, '\n');
  ASSERT_GE(lines.size(), 2u);
  // Ragged second row padded: same rendered width.
  EXPECT_EQ(lines[0].size(), lines[1].size());
}

TEST(Render, AsciiHeatmapDownSamplesColumns) {
  std::vector<double> wide(1000, 1.0);
  wide[999] = 10.0;
  const std::string map = ascii_heatmap({wide}, {}, 50);
  const auto lines = dlc::split(map, '\n');
  // 50 cells + 2 border chars.
  EXPECT_EQ(lines[0].size(), 52u);
  // The peak survives down-sampling (max pooling).
  EXPECT_NE(lines[0].find('@'), std::string::npos);
}


TEST(Figures, HotFilesRanksByIoTime) {
  SyntheticDb s;
  // record_id is fixed at 42 in SyntheticDb::add; extend with a second
  // file by re-using add and patching via a second SyntheticDb is clumsy,
  // so drive hot_files with one hot file and verify ordering fields.
  for (int i = 0; i < 5; ++i) s.add(1, 0, "n0", "write", i * 1.0, 2.0, 1000);
  s.add(1, 0, "n0", "open", 0.0, 0.0, -1);  // excluded (not a data op)
  const DataFrame hot = hot_files(*s.db, {1}, 10);
  ASSERT_EQ(hot.rows(), 1u);
  EXPECT_EQ(hot.get_int(0, "record_id"), 42);
  EXPECT_DOUBLE_EQ(hot.get_double(0, "ops"), 5.0);
  EXPECT_DOUBLE_EQ(hot.get_double(0, "bytes"), 5000.0);
  EXPECT_DOUBLE_EQ(hot.get_double(0, "total_dur"), 10.0);
}

TEST(Figures, HotFilesTruncatesToTopN) {
  // Build a db whose events span many distinct record ids.
  dsos::ClusterConfig cfg;
  cfg.shard_count = 1;
  cfg.parallel_query = false;
  auto db = std::make_shared<dsos::DsosCluster>(cfg);
  const auto schema = core::darshan_data_schema();
  db->register_schema(schema);
  for (std::uint64_t file = 0; file < 20; ++file) {
    db->insert(dsos::make_object(
        schema,
        {std::string("POSIX"), std::uint64_t{1}, std::string("n0"),
         std::int64_t{0}, std::string("N/A"), std::int64_t{0},
         std::int64_t{-1}, file, std::string("N/A"), std::int64_t{99},
         std::string("MOD"), std::uint64_t{1}, std::string("write"),
         std::int64_t{1}, std::int64_t{0}, std::int64_t{-1},
         static_cast<double>(file), std::int64_t{100}, std::int64_t{-1},
         std::int64_t{-1}, std::int64_t{-1}, std::string("N/A"),
         std::int64_t{-1}, 1.0}));
  }
  const DataFrame hot = hot_files(*db, {1}, 5);
  ASSERT_EQ(hot.rows(), 5u);
  // Descending by total_dur: files 19..15.
  EXPECT_EQ(hot.get_int(0, "record_id"), 19);
  EXPECT_EQ(hot.get_int(4, "record_id"), 15);
}


TEST(Frame, GroupByPercentiles) {
  DataFrame df;
  DataFrame::StringCol k;
  DataFrame::DoubleCol v;
  for (int i = 1; i <= 100; ++i) {
    k.push_back("a");
    v.push_back(static_cast<double>(i));
  }
  df.add_string_column("k", std::move(k));
  df.add_double_column("v", std::move(v));
  const DataFrame agg = df.group_by(
      {"k"}, {{.column = "v", .op = Agg::kP50, .out_name = "p50"},
              {.column = "v", .op = Agg::kP95, .out_name = "p95"}});
  ASSERT_EQ(agg.rows(), 1u);
  EXPECT_NEAR(agg.get_double(0, "p50"), 50.5, 0.01);
  EXPECT_NEAR(agg.get_double(0, "p95"), 95.05, 0.01);
}


TEST(Frame, LeftJoinMatchesAndFillsDefaults) {
  DataFrame left;
  left.add_int_column("rank", {0, 1, 2});
  left.add_double_column("dur", {1.0, 2.0, 3.0});
  DataFrame right;
  right.add_int_column("rank", {0, 2, 2});
  right.add_string_column("node", {"a", "c", "c2"});
  right.add_double_column("dur", {9.0, 8.0, 7.0});  // name collision

  const DataFrame joined = left.join(right, {"rank"});
  // rank 0 -> 1 match, rank 1 -> none, rank 2 -> 2 matches: 4 rows.
  ASSERT_EQ(joined.rows(), 4u);
  EXPECT_TRUE(joined.has_column("dur_right"));
  EXPECT_EQ(joined.get_int(0, "rank"), 0);
  EXPECT_EQ(joined.get_string(0, "node"), "a");
  EXPECT_DOUBLE_EQ(joined.get_double(0, "dur_right"), 9.0);
  // Unmatched left row keeps values, right columns default.
  EXPECT_EQ(joined.get_int(1, "rank"), 1);
  EXPECT_EQ(joined.get_string(1, "node"), "");
  EXPECT_DOUBLE_EQ(joined.get_double(1, "dur_right"), 0.0);
  // Fan-out rows.
  EXPECT_EQ(joined.get_string(2, "node"), "c");
  EXPECT_EQ(joined.get_string(3, "node"), "c2");
}

TEST(Frame, JoinOnMultipleKeys) {
  DataFrame left;
  left.add_int_column("job", {1, 1, 2});
  left.add_string_column("op", {"read", "write", "read"});
  DataFrame right;
  right.add_int_column("job", {1, 2});
  right.add_string_column("op", {"write", "read"});
  right.add_double_column("budget", {10.0, 20.0});
  const DataFrame joined = left.join(right, {"job", "op"});
  ASSERT_EQ(joined.rows(), 3u);
  EXPECT_DOUBLE_EQ(joined.get_double(0, "budget"), 0.0);   // (1,read) no match
  EXPECT_DOUBLE_EQ(joined.get_double(1, "budget"), 10.0);  // (1,write)
  EXPECT_DOUBLE_EQ(joined.get_double(2, "budget"), 20.0);  // (2,read)
}

}  // namespace
}  // namespace dlc::analysis
