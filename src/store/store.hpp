// Durable write-ahead-log store mounted *under* the DSOS container API.
//
// The paper's aggregation tier assumes campaign data outlives the
// process; this subsystem provides that without changing a single
// ingest/query call site.  Store::open() recovers the on-disk state
// into a DsosCluster and attaches itself to every shard's Container as
// a dsos::CommitSink — from then on each insert is logged into a
// per-shard group-commit buffer, and each Container::commit() flushes
// the buffer as one CRC-framed group onto that shard's write-ahead log.
// Queries, zone maps and the websvc keep reading the in-memory
// Container, which holds every row for the life of the process: the
// store's whole job is durability — group commit and recovery.
//
// Rows are held once.  The store keeps no copy of a row: its group-
// commit buffer points at the Container's own rows (a std::deque, so
// they never move) from the insert until the commit that writes them,
// which is why the cluster must outlive the store or be detached via
// close().
//
// Durability (StoreConfig::mode, chosen by whoever mounts the store):
//   memory  — nothing attached; the paper's lose-it-all behaviour.
//   tiered  — group commits are durable and recovery replays the log.
//
// Acknowledgement contract (at_least_once): a row is *acked* once a
// commit covering it returns true.  Crash-injection campaigns
// (relia::FaultPlan `storecrash commit` directives) kill the store
// mid-commit, then reopen and assert every acked row is recovered —
// the zero-acked-loss bar in ROADMAP.md.  A fired crash throws
// store::StoreCrash and deadens the instance (every later sink call
// no-ops, simulating the dead process); recovery happens by opening a
// *new* Store on the same directory.  Arm crashes only under serial
// ingest — a StoreCrash unwinding an ingest-executor worker thread
// would terminate the process for real.
//
// Threading: per-shard state is guarded by the StoreShard lock class
// (the ingest executor's one-writer-per-shard contract does not cover
// the drain thread's commit), store-wide state by StoreState, acquired
// before StoreShard.  See DESIGN.md §5c.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
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

class Store {
 public:
  explicit Store(StoreConfig config);
  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Replays every shard's WAL into `cluster` and attaches a commit sink
  /// to every shard.  The cluster must outlive the store or be detached
  /// via close(): the store refers to the rows it has not committed yet.
  /// Throws std::logic_error on double-open (this instance, another
  /// instance on the same directory, or a container that is already
  /// attached to a store) and std::runtime_error on a missing store
  /// directory with create_dir == false, or on a directory holding a
  /// `*.seg` file: an older build sealed rows out of its WAL into such
  /// segments, and opening without them would drop acknowledged rows.
  RecoveryReport open(dsos::DsosCluster& cluster);

  /// Commits pending rows, drops the store's row references, detaches
  /// every sink and releases the directory.  Idempotent; safe on a
  /// crashed store (the final flush is skipped — the process is "dead").
  void close();

  bool is_open() const { return open_.load(std::memory_order_acquire); }
  /// True once an armed crash fired; the instance is inert until then.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  const StoreConfig& config() const { return config_; }
  FaultInjector& faults() { return faults_; }
  const RecoveryReport& recovery() const { return recovery_; }

  /// Durability barrier: group-commits every shard (what drain() hits
  /// through Container::commit on each shard).
  void flush_all();

  /// Ack frontier: every row of `shard` with seq <= durable_seq(shard)
  /// survives a crash.
  std::uint64_t durable_seq(std::size_t shard) const;

 private:
  struct Shard;

  void require_open(const char* op) const;
  void mark_crashed() const;

  StoreConfig config_;
  FaultInjector faults_;
  RecoveryReport recovery_;

  mutable util::Mutex state_m_{"StoreState"};
  dsos::DsosCluster* cluster_ DLC_GUARDED_BY(state_m_) = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;  // stable between open/close

  // atomic-protocol: kind=flag pairs=Store::open/close
  std::atomic<bool> open_{false};
  // atomic-protocol: kind=flag pairs=crash-injection-test-hooks
  mutable std::atomic<bool> crashed_{false};
};

}  // namespace dlc::store
