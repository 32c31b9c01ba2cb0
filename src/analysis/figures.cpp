#include "analysis/figures.hpp"

#include <algorithm>
#include <cmath>

namespace dlc::analysis {

namespace {

constexpr const char* kSchema = "darshan_data";

DataFrame events_for_jobs(const dsos::DsosCluster& db,
                          const std::vector<std::uint64_t>& job_ids) {
  std::vector<const dsos::Object*> all;
  for (const std::uint64_t job : job_ids) {
    const auto rows = db.query(
        kSchema, "job_time_rank",
        dsos::Filter{{"job_id", dsos::Cmp::kEq, std::uint64_t{job}}});
    all.insert(all.end(), rows.begin(), rows.end());
  }
  return DataFrame::from_objects(all);
}

bool is_data_op(const std::string& op) { return op == "read" || op == "write"; }

}  // namespace

DataFrame job_events(const dsos::DsosCluster& db, std::uint64_t job_id) {
  return events_for_jobs(db, {job_id});
}

DataFrame fig5_op_counts(const dsos::DsosCluster& db,
                         const std::vector<std::uint64_t>& job_ids) {
  const DataFrame events = events_for_jobs(db, job_ids);
  if (events.rows() == 0) return {};
  // Count each op per job, then mean/CI across jobs per op.
  const DataFrame per_job = events.group_by(
      {"op", "job_id"}, {{.column = "", .op = Agg::kCount,
                          .out_name = "count"}});
  return per_job.group_by(
      {"op"}, {{.column = "count", .op = Agg::kMean, .out_name = "mean_count"},
               {.column = "count", .op = Agg::kCi95, .out_name = "ci95"}});
}

DataFrame fig6_requests_per_node(const dsos::DsosCluster& db,
                                 const std::vector<std::uint64_t>& job_ids) {
  DataFrame events = events_for_jobs(db, job_ids);
  if (events.rows() == 0) return {};
  events = events.filter([](const DataFrame& df, std::size_t r) {
    const std::string& op = df.get_string(r, "op");
    return op == "open" || op == "close";
  });
  return events.group_by({"job_id", "ProducerName", "op"},
                         {{.column = "", .op = Agg::kCount,
                           .out_name = "count"}});
}

DataFrame fig7_rank_durations(const dsos::DsosCluster& db,
                              const std::vector<std::uint64_t>& job_ids) {
  DataFrame events = events_for_jobs(db, job_ids);
  if (events.rows() == 0) return {};
  events = events.filter([](const DataFrame& df, std::size_t r) {
    return is_data_op(df.get_string(r, "op"));
  });
  return events.group_by(
      {"job_id", "rank", "op"},
      {{.column = "seg_dur", .op = Agg::kMean, .out_name = "mean_dur"},
       {.column = "seg_dur", .op = Agg::kSum, .out_name = "total_dur"},
       {.column = "", .op = Agg::kCount, .out_name = "count"}});
}

DataFrame fig7_job_summary(const dsos::DsosCluster& db,
                           const std::vector<std::uint64_t>& job_ids) {
  DataFrame events = events_for_jobs(db, job_ids);
  if (events.rows() == 0) return {};
  events = events.filter([](const DataFrame& df, std::size_t r) {
    return is_data_op(df.get_string(r, "op"));
  });
  return events.group_by(
      {"job_id", "op"},
      {{.column = "seg_dur", .op = Agg::kMean, .out_name = "mean_dur"}});
}

std::uint64_t find_anomalous_job(const DataFrame& job_summary,
                                 std::string_view op) {
  std::vector<std::pair<std::uint64_t, double>> jobs;
  for (std::size_t r = 0; r < job_summary.rows(); ++r) {
    if (job_summary.get_string(r, "op") == op) {
      jobs.emplace_back(
          static_cast<std::uint64_t>(job_summary.get_int(r, "job_id")),
          job_summary.get_double(r, "mean_dur"));
    }
  }
  if (jobs.size() < 3) return 0;
  std::vector<double> durs;
  for (const auto& [id, d] : jobs) durs.push_back(d);
  const double med = SortedQuantiles(std::move(durs)).percentile(50.0);
  std::uint64_t worst = 0;
  double worst_dev = -1.0;
  for (const auto& [id, d] : jobs) {
    const double dev = std::abs(d - med);
    if (dev > worst_dev) {
      worst_dev = dev;
      worst = id;
    }
  }
  return worst;
}

DataFrame fig8_timeline(const dsos::DsosCluster& db, std::uint64_t job_id) {
  DataFrame events = job_events(db, job_id);
  if (events.rows() == 0) return {};
  events = events.filter([](const DataFrame& df, std::size_t r) {
    return is_data_op(df.get_string(r, "op"));
  });
  if (events.rows() == 0) return {};
  // Relative time base: the job's earliest event timestamp.
  double t0 = events.get_double(0, "seg_timestamp");
  for (std::size_t r = 1; r < events.rows(); ++r) {
    t0 = std::min(t0, events.get_double(r, "seg_timestamp"));
  }
  DataFrame out;
  DataFrame::DoubleCol rel, dur;
  DataFrame::StringCol op;
  DataFrame::IntCol rank;
  for (std::size_t r = 0; r < events.rows(); ++r) {
    rel.push_back(events.get_double(r, "seg_timestamp") - t0);
    dur.push_back(events.get_double(r, "seg_dur"));
    op.push_back(events.get_string(r, "op"));
    rank.push_back(events.get_int(r, "rank"));
  }
  out.add_double_column("rel_time_s", std::move(rel));
  out.add_double_column("dur_s", std::move(dur));
  out.add_string_column("op", std::move(op));
  out.add_int_column("rank", std::move(rank));
  return out.sort_by("rel_time_s");
}

DataFrame fig9_throughput_buckets(const dsos::DsosCluster& db,
                                  std::uint64_t job_id,
                                  double bucket_seconds) {
  DataFrame timeline = fig8_timeline(db, job_id);
  if (timeline.rows() == 0) return {};
  // Need bytes: re-derive from the events frame (seg_len).
  DataFrame events = job_events(db, job_id);
  events = events.filter([](const DataFrame& df, std::size_t r) {
    return is_data_op(df.get_string(r, "op"));
  });
  double t0 = events.get_double(0, "seg_timestamp");
  for (std::size_t r = 1; r < events.rows(); ++r) {
    t0 = std::min(t0, events.get_double(r, "seg_timestamp"));
  }
  // Buckets are absolute-phase (floor(ts / w) * w) re-based on the
  // job's first bucket, so a streaming rollup bucketing events by
  // absolute time (src/rollup/) lands on identical boundaries.
  const double base = std::floor(t0 / bucket_seconds) * bucket_seconds;
  DataFrame bucketed;
  DataFrame::DoubleCol bucket;
  DataFrame::StringCol op;
  DataFrame::IntCol len;
  for (std::size_t r = 0; r < events.rows(); ++r) {
    const double ts = events.get_double(r, "seg_timestamp");
    bucket.push_back(std::floor(ts / bucket_seconds) * bucket_seconds - base);
    op.push_back(events.get_string(r, "op"));
    len.push_back(std::max<std::int64_t>(0, events.get_int(r, "seg_len")));
  }
  bucketed.add_double_column("bucket_s", std::move(bucket));
  bucketed.add_string_column("op", std::move(op));
  bucketed.add_int_column("bytes_raw", std::move(len));
  return bucketed
      .group_by({"bucket_s", "op"},
                {{.column = "", .op = Agg::kCount, .out_name = "count"},
                 {.column = "bytes_raw", .op = Agg::kSum, .out_name = "bytes"}})
      .sort_by("bucket_s");
}

DataFrame hot_files(const dsos::DsosCluster& db,
                    const std::vector<std::uint64_t>& job_ids,
                    std::size_t top_n) {
  DataFrame events = events_for_jobs(db, job_ids);
  if (events.rows() == 0) return {};
  events = events.filter([](const DataFrame& df, std::size_t r) {
    return is_data_op(df.get_string(r, "op"));
  });
  // seg_len is -1 for untraced accesses; clamp into a derived column.
  DataFrame::IntCol clamped;
  clamped.reserve(events.rows());
  for (std::size_t r = 0; r < events.rows(); ++r) {
    clamped.push_back(std::max<std::int64_t>(0, events.get_int(r, "seg_len")));
  }
  DataFrame with_bytes;
  with_bytes.add_int_column("record_id", [&events] {
    DataFrame::IntCol col;
    for (std::size_t r = 0; r < events.rows(); ++r) {
      col.push_back(events.get_int(r, "record_id"));
    }
    return col;
  }());
  with_bytes.add_int_column("bytes_clamped", std::move(clamped));
  with_bytes.add_double_column("dur", [&events] {
    DataFrame::DoubleCol col;
    for (std::size_t r = 0; r < events.rows(); ++r) {
      col.push_back(events.get_double(r, "seg_dur"));
    }
    return col;
  }());
  return with_bytes
      .group_by({"record_id"},
                {{.column = "", .op = Agg::kCount, .out_name = "ops"},
                 {.column = "bytes_clamped", .op = Agg::kSum,
                  .out_name = "bytes"},
                 {.column = "dur", .op = Agg::kSum, .out_name = "total_dur"}})
      .sort_by("total_dur", /*descending=*/true)
      .head(top_n);
}

}  // namespace dlc::analysis
