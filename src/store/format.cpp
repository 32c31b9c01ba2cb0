#include "store/format.hpp"

#include <string>

namespace dlc::store {

std::string wal_file_name(std::size_t shard) {
  return "wal-" + std::to_string(shard) + ".log";
}

std::string_view store_mode_name(StoreMode m) {
  switch (m) {
    case StoreMode::kMemory:
      return "memory";
    case StoreMode::kTiered:
      return "tiered";
  }
  return "?";
}

}  // namespace dlc::store
