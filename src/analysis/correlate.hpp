// Correlation analysis between I/O event data and system metric series —
// the paper's end goal: identify which system components (file system,
// network congestion, resource contention) drive I/O variability.
#pragma once

#include <optional>
#include <vector>

#include "analysis/frame.hpp"

namespace dlc::analysis {

/// A (time, value) series, e.g. an LDMS metric set channel.
struct TimeSeries {
  std::string name;
  std::vector<double> t;  // seconds, ascending
  std::vector<double> v;
};

/// Pearson correlation coefficient; nullopt when either side has zero
/// variance or fewer than 3 points.
std::optional<double> pearson(const std::vector<double>& x,
                              const std::vector<double>& y);

/// For each sample point (t_i, y_i), finds the metric value at the
/// nearest time in `series` (within `max_gap` seconds; points without a
/// neighbour are skipped) and returns the aligned (metric, y) pairs.
struct AlignedPairs {
  std::vector<double> metric;
  std::vector<double> value;
};
AlignedPairs align_nearest(const TimeSeries& series,
                           const std::vector<double>& t,
                           const std::vector<double>& y,
                           double max_gap = 30.0);

/// Correlates per-op durations from a figure timeline frame (columns
/// rel_time_s, dur_s, op) against each metric series; returns one row per
/// (op, metric) with the Pearson r and sample count.
///
/// When `bucket_seconds > 0`, durations are first averaged per time
/// bucket, which suppresses per-event queueing noise and exposes the
/// slow congestion trend.  Ops whose duration spread is below
/// `min_dur_stddev` seconds report r = 0 (a constant has no correlate —
/// this guards against the degenerate r = ±1 of e.g. all-cached reads).
/// Output columns: op, metric, r, n.
DataFrame correlate_durations(const DataFrame& timeline,
                              const std::vector<TimeSeries>& metrics,
                              double max_gap = 30.0,
                              double bucket_seconds = 0.0,
                              double min_dur_stddev = 1e-4);

}  // namespace dlc::analysis
