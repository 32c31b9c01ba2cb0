// Streaming and batch statistics used across the analysis layer and the
// experiment harness: Welford accumulators, 95% confidence intervals (the
// error bars in the paper's Fig. 5), percentiles and fixed-width histograms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dlc {

/// Numerically stable streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Half-width of the 95% confidence interval on the mean, using a
  /// small-sample t quantile (exact rows for n <= 30, 1.96 beyond).
  double ci95_half_width() const;

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Two-sided t-distribution 97.5% quantile for `dof` degrees of freedom.
double t_quantile_975(std::size_t dof);

/// Sort-once multi-quantile extractor: callers that need several
/// quantiles of the same sample (p50 + p95 in a group-by, p50/p99 in
/// benches) construct this once and query it repeatedly.  Quantiles are
/// exact linear-interpolated order statistics.
class SortedQuantiles {
 public:
  explicit SortedQuantiles(std::vector<double> values);

  /// Linear-interpolated percentile; `p` in [0, 100].  0 when empty.
  double percentile(double p) const;

  std::size_t count() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
};

// --- Log-bucket geometry -------------------------------------------------
//
// Shared by obs::LogHistogram (latency histograms with thread-local
// shards) and anything else that needs a fixed-size log-spaced layout for
// non-negative integer samples (nanoseconds, bytes).  Buckets subdivide
// each power-of-two octave into kLogBucketsPerOctave sub-buckets, so the
// relative bucket width — and therefore the worst-case quantile error —
// is bounded by 1/kLogBucketsPerOctave (25%) regardless of magnitude.
//
// Layout: bucket 0 holds exactly v == 0; bucket 1 + 4*octave + sub holds
// v with bit_width(v) == octave + 1.  64 octaves cover all of uint64.

inline constexpr std::uint32_t kLogBucketsPerOctave = 4;
inline constexpr std::uint32_t kLogBucketCount = 1 + 64 * kLogBucketsPerOctave;

/// Bucket index for a sample; always < kLogBucketCount.
std::uint32_t log_bucket_index(std::uint64_t v);

/// Smallest sample value mapping to bucket `idx`.
std::uint64_t log_bucket_lo(std::uint32_t idx);

/// Largest sample value mapping to bucket `idx` (inclusive).
std::uint64_t log_bucket_hi(std::uint32_t idx);

/// Estimate for the `rank`-th sample (1-based) given that it falls in
/// bucket `idx` with `cum_before` samples in strictly earlier buckets and
/// `in_bucket` (> 0) samples in this one: samples are assumed spread
/// evenly through [lo, hi], so the estimate is
///   lo + clamp((rank - cum_before - 0.5) / in_bucket, 0, 1) * (hi - lo).
/// Degenerate cases pin naturally: a single sample lands on the bucket
/// midpoint, and with every sample in one bucket p~0 -> lo, p50 -> mid,
/// p100 -> hi.  Always within the bucket's [lo, hi] bounds.
double log_bucket_interpolate(std::uint32_t idx, std::uint64_t rank,
                              std::uint64_t cum_before,
                              std::uint64_t in_bucket);

/// Percentile estimate from an array of kLogBucketCount bucket counts:
/// in-bucket interpolation (log_bucket_interpolate) at the bucket holding
/// the rank, so the estimate is within one bucket width of the exact
/// order statistic and never exceeds the bucket bounds.  `p` in [0, 100];
/// 0 when the histogram is empty.
double log_bucket_percentile(const std::uint64_t* counts, std::size_t n,
                             double p);

/// The 1-based rank (ceil convention) shared by every log-bucket
/// percentile walk: p=0 lands on the first sample, p=100 on the last.
std::uint64_t log_bucket_rank(double p, std::uint64_t total);

/// Fixed-width histogram over [lo, hi); values outside are clamped into the
/// first/last bin.  Used by the heatmap module and ASCII renderers.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);

  std::size_t bins() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  double count(std::size_t i) const { return counts_[i]; }
  double total() const { return total_; }

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

}  // namespace dlc
