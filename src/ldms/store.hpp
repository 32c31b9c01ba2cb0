// LDMS storage plugins: terminal subscribers that persist stream data.
//
//   CountingStore — counts messages/bytes (overhead experiments need only
//                   message accounting, not persistence).
//   CsvStore      — appends raw payload lines to an in-memory or file CSV
//                   sink (store_csv plugin analogue).
//   CallbackStore — adapter delivering messages to arbitrary code.  (The
//                   Darshan decoder in core/ does not use it: it
//                   subscribes to the daemon's bus itself.)
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "ldms/daemon.hpp"
#include "ldms/message.hpp"

namespace dlc::ldms {

class StorePlugin {
 public:
  virtual ~StorePlugin() = default;

  /// Attaches this store to `daemon`'s bus for `tag`.
  void attach(LdmsDaemon& daemon, const std::string& tag);

  virtual void store(const StreamMessage& msg) = 0;

  std::uint64_t stored() const { return stored_; }
  std::uint64_t stored_bytes() const { return stored_bytes_; }

 protected:
  void account(const StreamMessage& msg) {
    ++stored_;
    stored_bytes_ += msg.payload.size();
  }

 private:
  std::uint64_t stored_ = 0;
  std::uint64_t stored_bytes_ = 0;
};

/// Counts and (optionally) samples latency, discarding payloads.
class CountingStore final : public StorePlugin {
 public:
  void store(const StreamMessage& msg) override;

  /// Mean publish->store latency over the messages seen (virtual seconds).
  double mean_latency_seconds() const;

 private:
  double latency_sum_ = 0.0;
};

/// Accumulates payload lines; optionally mirrors them to a file.
class CsvStore final : public StorePlugin {
 public:
  CsvStore() = default;
  explicit CsvStore(const std::string& file_path);

  void store(const StreamMessage& msg) override;

  const std::vector<std::string>& rows() const { return rows_; }

 private:
  std::vector<std::string> rows_;
  std::ofstream file_;
};

/// Forwards to a std::function.
class CallbackStore final : public StorePlugin {
 public:
  explicit CallbackStore(std::function<void(const StreamMessage&)> fn)
      : fn_(std::move(fn)) {}

  void store(const StreamMessage& msg) override {
    account(msg);
    fn_(msg);
  }

 private:
  std::function<void(const StreamMessage&)> fn_;
};

}  // namespace dlc::ldms
