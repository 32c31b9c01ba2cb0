// Rollup cell: one (policy, key, time-bucket) aggregate and its durable
// row encoding (DESIGN.md §8b).
//
// A cell carries the Fig. 5–9 panel aggregates — op count, byte sum and
// duration stats (sum/min/max plus a sparse log-bucket histogram in the
// src/obs/ geometry) — keyed by the policy's projection of (job, node,
// rank, op, module) and an absolute time bucket.  Sealed cells are
// materialised as `rollup_cell` DSOS rows so the PR 6 tiered store
// persists them and retention expires them like any other schema.
//
// kRollupCellFields below declares the row once: rollup_cell_schema()
// is built from it and the policy dimensions (policy.hpp) are derived
// from its key fields.  The row codec and the /api/rollup/<policy>
// response follow its order, pinned by golden fixtures and a websvc test.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dsos/schema.hpp"

namespace dlc::rollup {

struct CellField {
  std::string_view name;
  dsos::AttrType type;
  bool dim;  // a policy-keyable dimension (a CellKey member)
};

/// The served cell's fields, in row/JSON order.
inline constexpr std::array<CellField, 14> kRollupCellFields = [] {
  using T = dsos::AttrType;
  return std::array<CellField, 14>{{
      {"policy", T::kString, false},
      {"job_id", T::kUint64, true},
      {"ProducerName", T::kString, true},
      {"rank", T::kInt64, true},
      {"op", T::kString, true},
      {"module", T::kString, true},
      {"bucket", T::kTimestamp, false},
      {"bucket_w", T::kDouble, false},
      {"count", T::kUint64, false},
      {"bytes", T::kUint64, false},
      {"dur_sum", T::kDouble, false},
      {"dur_min", T::kDouble, false},
      {"dur_max", T::kDouble, false},
      {"dur_hist", T::kString, false},
  }};
}();

/// Row-only bookkeeping attrs (not part of the served cell): the raw
/// shard the cell aggregated and the seal watermark it records.
inline constexpr std::array<CellField, 2> kRollupRowExtraFields = {{
    {"shard", dsos::AttrType::kUint64, false},
    {"watermark", dsos::AttrType::kTimestamp, false},
}};

/// Sparse counterpart of obs::LogHistogram: same util/stats.hpp
/// log-bucket geometry (4 sub-buckets per octave), but stored as sorted
/// (bucket, count) pairs so an idle cell costs bytes, not 2 KiB.
class SparseLogHist {
 public:
  void record(std::uint64_t sample);
  void merge(const SparseLogHist& other);
  std::uint64_t total() const;
  /// In-bucket interpolated, identical convention to
  /// util::log_bucket_percentile (within one log bucket of exact).
  double percentile(double p) const;

  /// "idx:count idx:count ..." (ascending idx; empty string when empty).
  std::string encode() const;
  static bool decode(std::string_view text, SparseLogHist& out);

  const std::vector<std::pair<std::uint32_t, std::uint64_t>>& buckets()
      const {
    return buckets_;
  }
  bool operator==(const SparseLogHist&) const = default;

 private:
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets_;
};

/// Aggregates of one cell.  Duration histogram samples are nanoseconds
/// (llround(seg_dur * 1e9)); bytes clamp negative seg_len to 0 exactly
/// like the fig9 raw scan.
struct CellAgg {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  double dur_sum = 0.0;
  double dur_min = std::numeric_limits<double>::infinity();
  double dur_max = -std::numeric_limits<double>::infinity();
  SparseLogHist dur_hist;

  void add(std::int64_t seg_len, double seg_dur);
  void merge(const CellAgg& other);
};

/// Projection key.  Unkeyed dimensions hold their neutral value ("*"
/// for strings, 0 for numerics); `bucket` is the absolute bucket index
/// floor(seg_timestamp / bucket_s).
struct CellKey {
  std::uint64_t job = 0;
  std::string producer = "*";
  std::int64_t rank = 0;
  std::string op = "*";
  std::string module = "*";
  std::int64_t bucket = 0;

  auto operator<=>(const CellKey&) const = default;
};

struct CellKeyHash {
  std::size_t operator()(const CellKey& k) const;
};

/// A decoded cell as served to queries.
struct RollupCell {
  std::string policy;
  CellKey key;
  double bucket_start = 0.0;  // key.bucket * bucket_w
  double bucket_w = 0.0;
  CellAgg agg;
};

/// The `rollup_cell` schema (cell fields + row extras; indexed by
/// (policy, bucket) and (policy, job_id, bucket)).
dsos::SchemaPtr rollup_cell_schema();

/// Cell -> durable row.  `watermark` is the per-(policy, shard) seal
/// frontier this spill advances to (recovery resumes from the max).
dsos::Object cell_to_row(const dsos::SchemaPtr& schema,
                         std::string_view policy, const CellKey& key,
                         double bucket_w, const CellAgg& agg,
                         std::uint64_t shard, double watermark);

/// Durable row -> cell.  False on a malformed row (bad histogram text).
bool row_to_cell(const dsos::Object& row, RollupCell& cell,
                 std::uint64_t& shard, double& watermark);

}  // namespace dlc::rollup
