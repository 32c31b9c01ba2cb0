// Fixtures shared by the tests that hold rollup cells to a serial or
// raw-scan reference: the schema the engine folds and a canonical
// rendering of query results.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "dsos/schema.hpp"
#include "rollup/cell.hpp"

namespace dlc::rollup {

/// The Table I subset the engine folds (full darshan_data in prod).
inline dsos::SchemaPtr rollup_schema() {
  using dsos::AttrType;
  return dsos::SchemaBuilder("darshan_data")
      .attr("module", AttrType::kString)
      .attr("ProducerName", AttrType::kString)
      .attr("rank", AttrType::kInt64)
      .attr("job_id", AttrType::kUint64)
      .attr("op", AttrType::kString)
      .attr("seg_dur", AttrType::kDouble)
      .attr("seg_len", AttrType::kInt64)
      .attr("seg_timestamp", AttrType::kTimestamp)
      .index("job_rank_time", {"job_id", "rank", "seg_timestamp"})
      .build();
}

/// Canonical byte rendering of one policy's query results (hex-float
/// doubles: "identical" means bit-identical).
inline std::string cell_fingerprint(const std::vector<RollupCell>& cells) {
  std::string out;
  char buf[128];
  for (const RollupCell& c : cells) {
    std::snprintf(buf, sizeof(buf), "%llu|%s|%lld|%s|%s|%lld|%a|%a|",
                  static_cast<unsigned long long>(c.key.job),
                  c.key.producer.c_str(),
                  static_cast<long long>(c.key.rank), c.key.op.c_str(),
                  c.key.module.c_str(),
                  static_cast<long long>(c.key.bucket), c.bucket_start,
                  c.bucket_w);
    out += buf;
    std::snprintf(buf, sizeof(buf), "%llu|%llu|%a|%a|%a|",
                  static_cast<unsigned long long>(c.agg.count),
                  static_cast<unsigned long long>(c.agg.bytes),
                  c.agg.dur_sum, c.agg.dur_min, c.agg.dur_max);
    out += buf;
    out += c.agg.dur_hist.encode();
    out += '\n';
  }
  return out;
}

}  // namespace dlc::rollup
