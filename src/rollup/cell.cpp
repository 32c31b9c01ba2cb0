#include "rollup/cell.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>

#include "util/stats.hpp"

namespace dlc::rollup {

void SparseLogHist::record(std::uint64_t sample) {
  const std::uint32_t idx = log_bucket_index(sample);
  const auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), idx,
      [](const auto& entry, std::uint32_t i) { return entry.first < i; });
  if (it != buckets_.end() && it->first == idx) {
    ++it->second;
  } else {
    buckets_.insert(it, {idx, 1});
  }
}

void SparseLogHist::merge(const SparseLogHist& other) {
  if (buckets_.empty()) {
    buckets_ = other.buckets_;
    return;
  }
  // One pass over both ascending lists: shared buckets add in place,
  // the others are appended and merged into order at the end.
  const std::size_t n = buckets_.size();
  std::size_t i = 0;
  for (const auto& [idx, count] : other.buckets_) {
    while (i < n && buckets_[i].first < idx) ++i;
    if (i < n && buckets_[i].first == idx) {
      buckets_[i].second += count;
    } else {
      buckets_.emplace_back(idx, count);
    }
  }
  std::inplace_merge(buckets_.begin(), buckets_.begin() + n, buckets_.end());
}

std::uint64_t SparseLogHist::total() const {
  std::uint64_t total = 0;
  for (const auto& [idx, count] : buckets_) total += count;
  return total;
}

double SparseLogHist::percentile(double p) const {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  // Same rank + interpolation convention as util::log_bucket_percentile,
  // so sparse and dense views of the same samples agree exactly.
  const std::uint64_t rank = log_bucket_rank(p, n);
  std::uint64_t cum = 0;
  for (const auto& [idx, count] : buckets_) {
    if (cum + count >= rank) {
      return log_bucket_interpolate(idx, rank, cum, count);
    }
    cum += count;
  }
  return static_cast<double>(log_bucket_hi(buckets_.back().first));
}

std::string SparseLogHist::encode() const {
  std::string out;
  for (const auto& [idx, count] : buckets_) {
    if (!out.empty()) out.push_back(' ');
    out += std::to_string(idx) + ":" + std::to_string(count);
  }
  return out;
}

bool SparseLogHist::decode(std::string_view text, SparseLogHist& out) {
  out.buckets_.clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = std::min(text.find(' ', pos), text.size());
    const std::string_view pair_text = text.substr(pos, end - pos);
    pos = end + 1;
    if (pair_text.empty()) continue;
    const std::size_t colon = pair_text.find(':');
    if (colon == std::string_view::npos) return false;
    std::uint32_t idx = 0;
    std::uint64_t count = 0;
    const auto* const base = pair_text.data();
    auto r1 = std::from_chars(base, base + colon, idx);
    auto r2 = std::from_chars(base + colon + 1, base + pair_text.size(), count);
    if (r1.ec != std::errc() || r1.ptr != base + colon ||
        r2.ec != std::errc() || r2.ptr != base + pair_text.size() ||
        idx >= kLogBucketCount || count == 0) {
      return false;
    }
    if (!out.buckets_.empty() && out.buckets_.back().first >= idx) {
      return false;  // must be strictly ascending
    }
    out.buckets_.push_back({idx, count});
  }
  return true;
}

void CellAgg::add(std::int64_t seg_len, double seg_dur) {
  ++count;
  bytes += static_cast<std::uint64_t>(std::max<std::int64_t>(0, seg_len));
  dur_sum += seg_dur;
  dur_min = std::min(dur_min, seg_dur);
  dur_max = std::max(dur_max, seg_dur);
  const double ns = std::max(0.0, seg_dur) * 1e9;
  dur_hist.record(static_cast<std::uint64_t>(std::llround(ns)));
}

void CellAgg::merge(const CellAgg& other) {
  count += other.count;
  bytes += other.bytes;
  dur_sum += other.dur_sum;
  dur_min = std::min(dur_min, other.dur_min);
  dur_max = std::max(dur_max, other.dur_max);
  dur_hist.merge(other.dur_hist);
}

std::size_t CellKeyHash::operator()(const CellKey& k) const {
  std::size_t h = std::hash<std::uint64_t>{}(k.job);
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(std::hash<std::string>{}(k.producer));
  mix(std::hash<std::int64_t>{}(k.rank));
  mix(std::hash<std::string>{}(k.op));
  mix(std::hash<std::string>{}(k.module));
  mix(std::hash<std::int64_t>{}(k.bucket));
  return h;
}

dsos::SchemaPtr rollup_cell_schema() {
  static const dsos::SchemaPtr schema = [] {
    dsos::SchemaBuilder builder("rollup_cell");
    for (const CellField& f : kRollupCellFields) {
      builder.attr(std::string(f.name), f.type);
    }
    for (const CellField& f : kRollupRowExtraFields) {
      builder.attr(std::string(f.name), f.type);
    }
    return builder.index("policy_bucket", {"policy", "bucket"})
        .index("policy_job_bucket", {"policy", "job_id", "bucket"})
        .build();
  }();
  return schema;
}

dsos::Object cell_to_row(const dsos::SchemaPtr& schema,
                         std::string_view policy, const CellKey& key,
                         double bucket_w, const CellAgg& agg,
                         std::uint64_t shard, double watermark) {
  return dsos::make_object(
      schema, {std::string(policy), key.job, key.producer, key.rank, key.op,
               key.module, static_cast<double>(key.bucket) * bucket_w,
               bucket_w, agg.count, agg.bytes, agg.dur_sum, agg.dur_min,
               agg.dur_max, agg.dur_hist.encode(), shard, watermark});
}

bool row_to_cell(const dsos::Object& row, RollupCell& cell,
                 std::uint64_t& shard, double& watermark) {
  cell.policy = row.as_string("policy");
  shard = row.as_uint("shard");
  watermark = row.as_double("watermark");
  cell.key.job = row.as_uint("job_id");
  cell.key.producer = row.as_string("ProducerName");
  cell.key.rank = row.as_int("rank");
  cell.key.op = row.as_string("op");
  cell.key.module = row.as_string("module");
  cell.bucket_start = row.as_double("bucket");
  cell.bucket_w = row.as_double("bucket_w");
  if (!(cell.bucket_w > 0)) return false;
  cell.key.bucket =
      static_cast<std::int64_t>(std::llround(cell.bucket_start / cell.bucket_w));
  cell.agg = CellAgg{};
  cell.agg.count = row.as_uint("count");
  cell.agg.bytes = row.as_uint("bytes");
  cell.agg.dur_sum = row.as_double("dur_sum");
  cell.agg.dur_min = row.as_double("dur_min");
  cell.agg.dur_max = row.as_double("dur_max");
  if (!SparseLogHist::decode(row.as_string("dur_hist"), cell.agg.dur_hist)) {
    return false;
  }
  return true;
}

}  // namespace dlc::rollup
