#include "analysis/figures.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string>
#include <string_view>

namespace dlc::analysis {

namespace {

constexpr const char* kSchema = "darshan_data";

/// A job set's rows, one job_time_rank query per job (each job's rows in
/// time order).  Only row pointers: a figure drops the ops it ignores
/// and then copies just the attributes it reads.  When the jobs have no
/// rows at all, `schema` is null and only empty() may be called.
struct JobRows {
  std::vector<const dsos::Object*> rows;
  const dsos::Schema* schema = nullptr;  // of the first queried row

  bool empty() const { return rows.empty(); }
  std::size_t attr(std::string_view name) const {
    return schema->attr_id(name);
  }

  /// Drops the rows whose op fails `keep`.
  void keep_ops(bool (*keep)(std::string_view op)) {
    const std::size_t op = attr("op");
    std::erase_if(rows, [&](const dsos::Object* row) {
      return !keep(std::get<std::string>(row->values[op]));
    });
  }

  /// The attributes `attrs` of the rows left, as typed columns.
  DataFrame frame(std::initializer_list<std::string_view> attrs) const {
    return DataFrame::from_objects(*schema, rows, attrs);
  }
};

JobRows job_rows(const dsos::DsosCluster& db,
                 const std::vector<std::uint64_t>& job_ids) {
  JobRows out;
  for (const std::uint64_t job : job_ids) {
    const auto rows = db.query(kSchema, "job_time_rank",
                               dsos::Filter{{"job_id", std::uint64_t{job}}});
    out.rows.insert(out.rows.end(), rows.begin(), rows.end());
  }
  if (!out.rows.empty()) out.schema = out.rows.front()->schema.get();
  return out;
}

bool is_data_op(std::string_view op) { return op == "read" || op == "write"; }

bool is_open_close(std::string_view op) {
  return op == "open" || op == "close";
}

}  // namespace

DataFrame job_events(const dsos::DsosCluster& db, std::uint64_t job_id) {
  return DataFrame::from_objects(job_rows(db, {job_id}).rows);
}

DataFrame fig5_op_counts(const dsos::DsosCluster& db,
                         const std::vector<std::uint64_t>& job_ids) {
  const JobRows events = job_rows(db, job_ids);
  if (events.empty()) return {};
  // Count each op per job, then mean/CI across jobs per op.
  const DataFrame per_job = events.frame({"op", "job_id"}).group_by(
      {"op", "job_id"}, {{.column = "", .op = Agg::kCount,
                          .out_name = "count"}});
  return per_job.group_by(
      {"op"}, {{.column = "count", .op = Agg::kMean, .out_name = "mean_count"},
               {.column = "count", .op = Agg::kCi95, .out_name = "ci95"}});
}

DataFrame fig6_requests_per_node(const dsos::DsosCluster& db,
                                 const std::vector<std::uint64_t>& job_ids) {
  JobRows events = job_rows(db, job_ids);
  if (events.empty()) return {};
  events.keep_ops(is_open_close);
  return events.frame({"job_id", "ProducerName", "op"})
      .group_by({"job_id", "ProducerName", "op"},
                {{.column = "", .op = Agg::kCount, .out_name = "count"}});
}

DataFrame fig7_rank_durations(const dsos::DsosCluster& db,
                              const std::vector<std::uint64_t>& job_ids) {
  JobRows events = job_rows(db, job_ids);
  if (events.empty()) return {};
  events.keep_ops(is_data_op);
  return events.frame({"job_id", "rank", "op", "seg_dur"})
      .group_by(
          {"job_id", "rank", "op"},
          {{.column = "seg_dur", .op = Agg::kMean, .out_name = "mean_dur"},
           {.column = "seg_dur", .op = Agg::kSum, .out_name = "total_dur"},
           {.column = "", .op = Agg::kCount, .out_name = "count"}});
}

DataFrame fig7_job_summary(const dsos::DsosCluster& db,
                           const std::vector<std::uint64_t>& job_ids) {
  JobRows events = job_rows(db, job_ids);
  if (events.empty()) return {};
  events.keep_ops(is_data_op);
  return events.frame({"job_id", "op", "seg_dur"})
      .group_by(
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
  const JobRows events = job_rows(db, {job_id});
  if (events.empty()) return {};
  // One pass over the rows (each is a pointer chase into the store):
  // the four attributes of every read/write.
  const std::size_t ts_id = events.attr("seg_timestamp");
  const std::size_t dur_id = events.attr("seg_dur");
  const std::size_t op_id = events.attr("op");
  const std::size_t rank_id = events.attr("rank");
  DataFrame::DoubleCol rel, dur;
  DataFrame::StringCol op;
  DataFrame::IntCol rank;
  rel.reserve(events.rows.size());
  dur.reserve(events.rows.size());
  op.reserve(events.rows.size());
  rank.reserve(events.rows.size());
  for (const dsos::Object* row : events.rows) {
    const auto& values = row->values;
    const std::string& row_op = std::get<std::string>(values[op_id]);
    if (!is_data_op(row_op)) continue;
    rel.push_back(std::get<double>(values[ts_id]));  // re-based below
    dur.push_back(std::get<double>(values[dur_id]));
    op.push_back(row_op);
    rank.push_back(std::get<std::int64_t>(values[rank_id]));
  }
  if (rel.empty()) return {};
  // Relative time base: the job's earliest event timestamp.
  const double t0 = *std::min_element(rel.begin(), rel.end());
  for (double& t : rel) t -= t0;
  DataFrame out;
  out.add_double_column("rel_time_s", std::move(rel));
  out.add_double_column("dur_s", std::move(dur));
  out.add_string_column("op", std::move(op));
  out.add_int_column("rank", std::move(rank));
  return out.sort_by("rel_time_s");
}

DataFrame fig9_throughput_buckets(const dsos::DsosCluster& db,
                                  std::uint64_t job_id,
                                  double bucket_seconds) {
  const JobRows events = job_rows(db, {job_id});
  if (events.empty()) return {};
  const std::size_t ts_id = events.attr("seg_timestamp");
  const std::size_t op_id = events.attr("op");
  const std::size_t len_id = events.attr("seg_len");
  DataFrame::DoubleCol bucket;
  DataFrame::StringCol op;
  DataFrame::IntCol len;
  for (const dsos::Object* row : events.rows) {
    const auto& values = row->values;
    const std::string& row_op = std::get<std::string>(values[op_id]);
    if (!is_data_op(row_op)) continue;
    bucket.push_back(std::get<double>(values[ts_id]));  // ts until re-based
    op.push_back(row_op);
    len.push_back(
        std::max<std::int64_t>(0, std::get<std::int64_t>(values[len_id])));
  }
  if (bucket.empty()) return {};
  // Buckets are absolute-phase (floor(ts / w) * w) re-based on the
  // job's first bucket, so a streaming rollup bucketing events by
  // absolute time (src/rollup/) lands on identical boundaries.
  const double base =
      std::floor(*std::min_element(bucket.begin(), bucket.end()) /
                 bucket_seconds) *
      bucket_seconds;
  for (double& b : bucket) {
    b = std::floor(b / bucket_seconds) * bucket_seconds - base;
  }
  DataFrame bucketed;
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
  JobRows events = job_rows(db, job_ids);
  if (events.empty()) return {};
  events.keep_ops(is_data_op);
  const std::size_t record_id = events.attr("record_id");
  const std::size_t len_id = events.attr("seg_len");
  const std::size_t dur_id = events.attr("seg_dur");
  DataFrame::IntCol record, clamped;
  DataFrame::DoubleCol dur;
  for (const dsos::Object* row : events.rows) {
    record.push_back(static_cast<std::int64_t>(
        std::get<std::uint64_t>(row->values[record_id])));
    // seg_len is -1 for untraced accesses.
    clamped.push_back(
        std::max<std::int64_t>(0, std::get<std::int64_t>(row->values[len_id])));
    dur.push_back(std::get<double>(row->values[dur_id]));
  }
  DataFrame with_bytes;
  with_bytes.add_int_column("record_id", std::move(record));
  with_bytes.add_int_column("bytes_clamped", std::move(clamped));
  with_bytes.add_double_column("dur", std::move(dur));
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
