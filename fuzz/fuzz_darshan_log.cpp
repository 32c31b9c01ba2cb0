// libFuzzer entry point for the darshan_log decode surface; the logic lives in
// fuzz/targets.cpp so the standalone driver and corpus test share it.
#include "fuzz/targets.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return dlc::fuzz::darshan_log_one(data, size);
}
