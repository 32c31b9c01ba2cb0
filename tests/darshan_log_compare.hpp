// Field-by-field comparison of two darshan logs for the log format tests:
// the job header, each record's identity, every serialized counter
// (walked through darshan::for_each_counter) and every DXT segment.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "darshan/runtime.hpp"

namespace dlc::darshan {

using CounterValue = std::variant<std::int64_t, std::uint64_t, double>;

/// The serialized counters in log order, each with its encoding type.
inline std::vector<CounterValue> counter_values(const RecordCounters& c) {
  std::vector<CounterValue> out;
  for_each_counter(c, [&out](auto v) { out.emplace_back(v); });
  return out;
}

inline void expect_same_log(const Log& got, const Log& want) {
  EXPECT_EQ(got.job_id, want.job_id);
  EXPECT_EQ(got.uid, want.uid);
  EXPECT_EQ(got.exe, want.exe);
  EXPECT_EQ(got.nprocs, want.nprocs);
  EXPECT_EQ(got.start_time, want.start_time);
  EXPECT_EQ(got.end_time, want.end_time);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const Log::RecordEntry& a = got.records[i];
    const Log::RecordEntry& b = want.records[i];
    EXPECT_EQ(a.record.module, b.record.module);
    EXPECT_EQ(a.record.rank, b.record.rank);
    EXPECT_EQ(a.record.record_id, b.record.record_id);
    EXPECT_EQ(a.record.file_path, b.record.file_path);
    EXPECT_EQ(counter_values(a.record.counters),
              counter_values(b.record.counters));
    EXPECT_EQ(a.dxt_dropped, b.dxt_dropped);
    ASSERT_EQ(a.dxt.size(), b.dxt.size());
    for (std::size_t s = 0; s < a.dxt.size(); ++s) {
      SCOPED_TRACE("segment " + std::to_string(s));
      EXPECT_EQ(a.dxt[s].op, b.dxt[s].op);
      EXPECT_EQ(a.dxt[s].offset, b.dxt[s].offset);
      EXPECT_EQ(a.dxt[s].length, b.dxt[s].length);
      EXPECT_EQ(a.dxt[s].start, b.dxt[s].start);
      EXPECT_EQ(a.dxt[s].end, b.dxt[s].end);
    }
  }
}

}  // namespace dlc::darshan
