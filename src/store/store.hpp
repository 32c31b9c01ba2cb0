// Durable write-ahead-log store: a directory of per-shard WALs.
//
// The paper's aggregation tier assumes campaign data outlives the
// process; this subsystem provides that.  store::Log is its core: open()
// claims a directory, replays each shard's WAL and hands the rows to
// the caller, and commit() writes a caller's rows onto one shard's WAL
// as one CRC-framed group.  The log holds no reference to those rows
// once commit() returns, whether it succeeded or failed.  It has two
// users:
//   * store::Store mounts a Log *under* the DSOS container API without
//     changing a single ingest/query call site: open(cluster) replays
//     the rows into the containers and attaches a dsos::CommitSink to
//     every shard.  Each insert is then buffered as a reference to the
//     Container's own row (a std::deque, so rows never move) and each
//     Container::commit() writes the buffer as one group, so the
//     cluster must outlive the store or be detached via close().
//     Queries keep reading the in-memory Container.
//   * rollup::RollupEngine commits each seal batch of its durable spill
//     as one group of `rollup_cell` rows (rollup/engine.hpp).
//
// Durability (StoreConfig::mode, chosen by whoever mounts the store):
//   memory  — nothing attached; the paper's lose-it-all behaviour.
//   tiered  — group commits are durable and recovery replays the log.
//
// Acknowledgement contract (at_least_once): a row is *acked* once a
// commit covering it returns true.  Crash-injection campaigns
// (relia::FaultPlan `storecrash commit` directives) kill the log
// mid-commit, then reopen and assert every acked row is recovered —
// the zero-acked-loss bar in ROADMAP.md.  A fired crash tears the group
// frame, throws store::StoreCrash and deadens the log (every later
// commit returns false, simulating the dead process); a commit whose
// write fails deadens it the same way, without the throw, so nothing
// is ever appended behind a torn frame.  Recovery happens by opening a
// *new* log on the same directory.  Arm crashes only under serial
// ingest — a StoreCrash unwinding an ingest-executor worker thread
// would terminate the process for real.
//
// Threading: Store guards its open/close state by the StoreState lock
// class and each sink's pending rows by StoreShard (the ingest
// executor's one-writer-per-shard contract does not cover the drain
// thread's commit); a Log serializes each shard's commits under
// StoreLog.  They nest in that order.  See DESIGN.md §5c.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dsos/cluster.hpp"
#include "relia/fault.hpp"
#include "store/format.hpp"
#include "store/wal.hpp"
#include "util/thread_annotations.hpp"

namespace dlc::store {

struct StoreConfig {
  StoreMode mode = StoreMode::kMemory;
  /// Store directory; required unless kMemory.
  std::string dir;
  /// Created when missing (false turns a missing dir into an open error).
  bool create_dir = true;
  /// Rows buffered per shard before an automatic group commit.
  std::size_t wal_group_records = 64;
};

/// Thrown when an armed crash point fires: "the process died here".
class StoreCrash : public std::runtime_error {
 public:
  explicit StoreCrash(const std::string& what) : std::runtime_error(what) {}
};

/// Where a FaultPlan `storecrash` directive can kill the store.
enum class CrashPoint : std::uint8_t {
  kWalCommit = 0,  // mid group-commit: torn WAL tail
};
inline constexpr std::size_t kCrashPointCount = 1;

std::string_view crash_point_name(CrashPoint p);
bool crash_point_from_name(std::string_view name, CrashPoint& out);

/// Occurrence-counted crash injection (lock-free: ticked under the
/// shard lock on the commit hot path).
class FaultInjector {
 public:
  /// The `after_n`-th occurrence of `p` fires (0 disarms).
  void arm(CrashPoint p, std::uint64_t after_n);
  /// Arms every `storecrash <point> after <n>` event; returns how many
  /// were armed (unknown point names are skipped).
  std::size_t arm_from_plan(const relia::FaultPlan& plan);
  /// Ticks the counter; true exactly once, when the armed occurrence is
  /// reached.
  bool should_crash(CrashPoint p);

 private:
  // atomic-protocol: kind=counter pairs=crash-injection-test-hooks
  std::array<std::atomic<std::uint64_t>, kCrashPointCount> after_{};
};

/// What open() reconstructed from disk.
struct RecoveryReport {
  std::uint64_t wal_frames = 0;
  std::uint64_t rows_from_wal = 0;
  std::uint64_t torn_tails = 0;      // WALs truncated at a torn frame
  std::uint64_t torn_wal_bytes = 0;  // bytes truncated off WAL tails
  /// Per-shard recovered sequence frontier (everything <= this is
  /// durable; an at-least-once driver resubmits from here).
  std::vector<std::uint64_t> high_seq;
};

/// The store's core: one directory of per-shard write-ahead logs.
class Log {
 public:
  Log();
  ~Log();

  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  /// Receives each shard's replayed WAL during open(), in shard order.
  using ReplaySink = std::function<void(std::size_t shard, WalReplay& wal)>;

  /// Claims `dir`, replays the WALs of shards [0, shards) into `replay`
  /// (truncating torn tails) and opens each for appending; its sequence
  /// continues from the last replayed row.  Throws std::logic_error on a
  /// double open (this instance, a crashed one, or another live log on
  /// the same directory) and std::runtime_error on a missing directory
  /// with `create_dir` false, an unreadable WAL, or a directory holding
  /// a `*.seg` file: an older build sealed rows out of its WAL into such
  /// segments, and opening without them would drop acknowledged rows.
  /// On any throw, `replay`'s included, nothing stays claimed or open.
  RecoveryReport open(const std::string& dir, bool create_dir,
                      std::size_t shards, const ReplaySink& replay);

  /// Writes `rows` onto `shard`'s WAL as one group, schema frames
  /// first, and flushes.  True once every row is durable (an empty
  /// group is trivially durable); false when the log is not open, is
  /// dead, or the write fails, which deadens it.  An armed `commit`
  /// crash point tears the frame, deadens the log and throws StoreCrash.
  bool commit(std::size_t shard, const std::vector<const dsos::Object*>& rows);

  /// Closes every WAL and releases the directory.  Idempotent; a dead
  /// log's claim was already released when it died.
  void close();

  bool is_open() const { return open_.load(std::memory_order_acquire); }
  /// True once a crash fired or a write failed; the log stays inert.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  FaultInjector& faults() { return faults_; }

  /// Ack frontier: every row of `shard` with seq <= durable_seq(shard)
  /// survives a crash.
  std::uint64_t durable_seq(std::size_t shard) const;

 private:
  struct Shard;

  void mark_crashed();

  std::string dir_;
  FaultInjector faults_;
  std::vector<std::unique_ptr<Shard>> shards_;  // stable between opens

  // atomic-protocol: kind=flag pairs=Log::open/close
  std::atomic<bool> open_{false};
  // atomic-protocol: kind=flag pairs=crash-injection-test-hooks
  std::atomic<bool> crashed_{false};
};

/// A Log mounted under a DsosCluster.
class Store {
 public:
  explicit Store(StoreConfig config);
  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Replays every shard's WAL into `cluster` and attaches a commit sink
  /// to every shard.  The cluster must outlive the store or be detached
  /// via close(): the store refers to the rows it has not committed yet.
  /// Throws what Log::open throws, std::logic_error on a double open of
  /// this instance or a container already attached to a store, and
  /// std::runtime_error in tiered mode without a directory.
  RecoveryReport open(dsos::DsosCluster& cluster);

  /// Commits pending rows, drops the store's row references, detaches
  /// every sink and releases the directory.  Idempotent; safe on a
  /// crashed store (the final flush is skipped — the process is "dead").
  void close();

  bool is_open() const { return open_.load(std::memory_order_acquire); }
  bool crashed() const { return log_.crashed(); }
  FaultInjector& faults() { return log_.faults(); }

  /// Durability barrier: group-commits every shard (what drain() hits
  /// through Container::commit on each shard).
  void flush_all();

  std::uint64_t durable_seq(std::size_t shard) const {
    return log_.durable_seq(shard);
  }

 private:
  struct Sink;

  StoreConfig config_;
  Log log_;

  mutable util::Mutex state_m_{"StoreState"};
  dsos::DsosCluster* cluster_ DLC_GUARDED_BY(state_m_) = nullptr;
  std::vector<std::unique_ptr<Sink>> sinks_;  // stable between open/close

  // atomic-protocol: kind=flag pairs=Store::open/close
  std::atomic<bool> open_{false};
};

}  // namespace dlc::store
