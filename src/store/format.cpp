#include "store/format.hpp"

#include <cstdio>
#include <string>

namespace dlc::store {

std::string wal_file_name(std::size_t shard) {
  return "wal-" + std::to_string(shard) + ".log";
}

std::string segment_file_name(std::size_t shard, std::uint64_t id) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "seg-%zu-%08llu.seg", shard,
                static_cast<unsigned long long>(id));
  return buf;
}

std::string_view store_mode_name(StoreMode m) {
  switch (m) {
    case StoreMode::kMemory:
      return "memory";
    case StoreMode::kWal:
      return "wal";
    case StoreMode::kTiered:
      return "tiered";
  }
  return "?";
}

}  // namespace dlc::store
