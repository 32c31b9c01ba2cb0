#include "analysis/correlate.hpp"

#include <algorithm>
#include <cmath>

namespace dlc::analysis {

std::optional<double> pearson(const std::vector<double>& x,
                              const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 3) return std::nullopt;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0, syy = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    syy += dy * dy;
    sxy += dx * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return std::nullopt;
  return sxy / std::sqrt(sxx * syy);
}

AlignedPairs align_nearest(const TimeSeries& series,
                           const std::vector<double>& t,
                           const std::vector<double>& y, double max_gap) {
  AlignedPairs out;
  if (series.t.empty()) return out;
  for (std::size_t i = 0; i < t.size() && i < y.size(); ++i) {
    const auto it =
        std::lower_bound(series.t.begin(), series.t.end(), t[i]);
    double best_gap = std::numeric_limits<double>::infinity();
    std::size_t best = 0;
    if (it != series.t.end()) {
      best = static_cast<std::size_t>(it - series.t.begin());
      best_gap = std::abs(*it - t[i]);
    }
    if (it != series.t.begin()) {
      const auto prev = static_cast<std::size_t>(it - series.t.begin()) - 1;
      const double gap = std::abs(series.t[prev] - t[i]);
      if (gap < best_gap) {
        best = prev;
        best_gap = gap;
      }
    }
    if (best_gap <= max_gap) {
      out.metric.push_back(series.v[best]);
      out.value.push_back(y[i]);
    }
  }
  return out;
}

namespace {

/// Averages (t, y) samples into fixed-width buckets; returns bucket
/// centres and means, time-ascending.
void bucket_means(std::vector<double>& t, std::vector<double>& y,
                  double bucket_seconds) {
  std::map<std::int64_t, RunningStats> buckets;
  for (std::size_t i = 0; i < t.size(); ++i) {
    buckets[static_cast<std::int64_t>(t[i] / bucket_seconds)].add(y[i]);
  }
  t.clear();
  y.clear();
  for (const auto& [idx, stats] : buckets) {
    t.push_back((static_cast<double>(idx) + 0.5) * bucket_seconds);
    y.push_back(stats.mean());
  }
}

}  // namespace

DataFrame correlate_durations(const DataFrame& timeline,
                              const std::vector<TimeSeries>& metrics,
                              double max_gap, double bucket_seconds,
                              double min_dur_stddev) {
  DataFrame out;
  DataFrame::StringCol ops, names;
  DataFrame::DoubleCol rs, ns;

  // Split the timeline by op.
  std::vector<std::string> distinct_ops;
  for (std::size_t r = 0; r < timeline.rows(); ++r) {
    const std::string& op = timeline.get_string(r, "op");
    if (std::find(distinct_ops.begin(), distinct_ops.end(), op) ==
        distinct_ops.end()) {
      distinct_ops.push_back(op);
    }
  }
  std::sort(distinct_ops.begin(), distinct_ops.end());

  for (const std::string& op : distinct_ops) {
    std::vector<double> t, dur;
    for (std::size_t r = 0; r < timeline.rows(); ++r) {
      if (timeline.get_string(r, "op") == op) {
        t.push_back(timeline.get_double(r, "rel_time_s"));
        dur.push_back(timeline.get_double(r, "dur_s"));
      }
    }
    if (bucket_seconds > 0.0) bucket_means(t, dur, bucket_seconds);
    RunningStats spread;
    for (double d : dur) spread.add(d);
    const bool degenerate = spread.stddev() < min_dur_stddev;
    for (const TimeSeries& series : metrics) {
      const AlignedPairs pairs = align_nearest(series, t, dur, max_gap);
      const auto r =
          degenerate ? std::nullopt : pearson(pairs.metric, pairs.value);
      ops.push_back(op);
      names.push_back(series.name);
      rs.push_back(r.value_or(0.0));
      ns.push_back(static_cast<double>(pairs.metric.size()));
    }
  }
  out.add_string_column("op", std::move(ops));
  out.add_string_column("metric", std::move(names));
  out.add_double_column("r", std::move(rs));
  out.add_double_column("n", std::move(ns));
  return out;
}

}  // namespace dlc::analysis
