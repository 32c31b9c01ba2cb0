#include "core/schema_darshan.hpp"

namespace dlc::core {

dsos::SchemaPtr darshan_data_schema() {
  dsos::SchemaBuilder builder("darshan_data");
  for (const FieldSpec& f : kDarshanFields) {
    builder.attr((f.in_seg ? "seg_" : "") + std::string(f.key), f.type);
  }
  return builder.index("job_rank_time", {"job_id", "rank", "seg_timestamp"})
      .index("job_time_rank", {"job_id", "seg_timestamp", "rank"})
      .index("time", {"seg_timestamp"})
      .build();
}

const char* darshan_csv_header() {
  static const std::string header = [] {
    std::string h = "#";
    for (const FieldSpec& f : kDarshanFields) {
      if (h.size() > 1) h += ',';
      h += (f.in_seg ? "seg:" : "") + std::string(f.key);
    }
    return h;
  }();
  return header.c_str();
}

}  // namespace dlc::core
