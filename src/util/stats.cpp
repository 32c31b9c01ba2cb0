#include "util/stats.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

namespace dlc {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95_half_width() const {
  if (n_ < 2) return 0.0;
  const double se = stddev() / std::sqrt(static_cast<double>(n_));
  return t_quantile_975(n_ - 1) * se;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double t_quantile_975(std::size_t dof) {
  // Exact two-sided 95% t quantiles for 1..30 dof; beyond that the normal
  // approximation is within 0.4%.
  static constexpr std::array<double, 30> kTable = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (dof == 0) return 0.0;
  if (dof <= kTable.size()) return kTable[dof - 1];
  return 1.96;
}

SortedQuantiles::SortedQuantiles(std::vector<double> values)
    : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double SortedQuantiles::percentile(double p) const {
  if (sorted_.empty()) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double idx =
      clamped / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

std::uint32_t log_bucket_index(std::uint64_t v) {
  if (v == 0) return 0;
  const auto octave = static_cast<std::uint32_t>(std::bit_width(v) - 1);
  // Sub-bucket = the two bits below the leading one; octaves 0 and 1 have
  // fewer than two such bits, so the value is shifted up instead (some
  // sub-buckets in those octaves are then unreachable and stay empty).
  const std::uint32_t sub =
      octave >= 2 ? static_cast<std::uint32_t>((v >> (octave - 2)) & 3)
                  : static_cast<std::uint32_t>((v << (2 - octave)) & 3);
  return 1 + octave * kLogBucketsPerOctave + sub;
}

std::uint64_t log_bucket_lo(std::uint32_t idx) {
  if (idx == 0) return 0;
  const std::uint32_t octave = (idx - 1) / kLogBucketsPerOctave;
  const std::uint64_t sub = (idx - 1) % kLogBucketsPerOctave;
  if (octave >= 2) return (std::uint64_t{1} << octave) | (sub << (octave - 2));
  return (std::uint64_t{1} << octave) | (sub >> (2 - octave));
}

std::uint64_t log_bucket_hi(std::uint32_t idx) {
  if (idx == 0) return 0;
  const std::uint32_t octave = (idx - 1) / kLogBucketsPerOctave;
  if (octave < 2) return log_bucket_lo(idx);
  return log_bucket_lo(idx) + ((std::uint64_t{1} << (octave - 2)) - 1);
}

std::uint64_t log_bucket_rank(double p, std::uint64_t total) {
  const double clamped = std::clamp(p, 0.0, 100.0);
  // 1-based, ceil: p=0 lands on the first sample, p=100 on the last.
  return static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(clamped / 100.0 * static_cast<double>(total))));
}

double log_bucket_interpolate(std::uint32_t idx, std::uint64_t rank,
                              std::uint64_t cum_before,
                              std::uint64_t in_bucket) {
  const auto lo = static_cast<double>(log_bucket_lo(idx));
  const auto hi = static_cast<double>(log_bucket_hi(idx));
  if (in_bucket == 0 || hi <= lo) return lo;
  // The rank-th sample is the (rank - cum_before)-th of in_bucket samples
  // assumed evenly spread through [lo, hi]; -0.5 centres each sample in
  // its 1/in_bucket slice so a lone sample sits on the bucket midpoint.
  const double frac = std::clamp(
      (static_cast<double>(rank - cum_before) - 0.5) /
          static_cast<double>(in_bucket),
      0.0, 1.0);
  return lo + frac * (hi - lo);
}

double log_bucket_percentile(const std::uint64_t* counts, std::size_t n,
                             double p) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += counts[i];
  if (total == 0) return 0.0;
  const std::uint64_t rank = log_bucket_rank(p, total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (counts[i] == 0) continue;
    if (cum + counts[i] >= rank) {
      return log_bucket_interpolate(static_cast<std::uint32_t>(i), rank, cum,
                                    counts[i]);
    }
    cum += counts[i];
  }
  return static_cast<double>(log_bucket_hi(static_cast<std::uint32_t>(n - 1)));
}

}  // namespace dlc
