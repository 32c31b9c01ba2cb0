// Durable tiered segment store mounted *under* the DSOS container API.
//
// The paper's aggregation tier assumes campaign data outlives the
// process; this subsystem provides that without changing a single
// ingest/query call site.  Store::open() recovers the on-disk state
// into a DsosCluster and attaches itself to every shard's Container as
// a dsos::CommitSink — from then on each insert is mirrored into a
// per-shard group-commit buffer, each Container::commit() flushes the
// buffer as one CRC-framed WAL group, and (in tiered mode) WAL runs are
// sealed into immutable zone-mapped segment files that a background
// thread compacts and expires.  Queries, zone maps and the websvc keep
// reading the hot in-memory Container exactly as before; the segments
// additionally serve query_cold(), which prunes on persisted zone maps
// without decoding cold data blocks.
//
// Durability ladder (StoreConfig::mode, chosen by whoever mounts the
// store):
//   memory  — nothing attached; the paper's lose-it-all behaviour.
//   wal     — group commits are durable; recovery replays the log.
//   tiered  — wal + sealing + compaction + retention
//             (StoreConfig::retention_s over segment max_time).
//
// Acknowledgement contract (at_least_once): a row is *acked* once a
// commit covering it returns true.  Crash-injection campaigns
// (relia::FaultPlan `storecrash` directives) kill the store mid-commit,
// mid-seal and mid-compaction, then reopen and assert every acked row
// is recovered — the zero-acked-loss bar in ROADMAP.md.  A fired crash
// throws store::StoreCrash and deadens the instance (every later sink
// call no-ops, simulating the dead process); recovery happens by
// opening a *new* Store on the same directory.  Arm crashes only under
// serial ingest — a StoreCrash unwinding an ingest-executor worker
// thread would terminate the process for real.
//
// Threading: per-shard state is guarded by the StoreShard lock class
// (the ingest executor's one-writer-per-shard contract does not cover
// the drain thread's commit or the compactor), store-wide state by
// StoreState, acquired before StoreShard.  See DESIGN.md §5c.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dsos/cluster.hpp"
#include "relia/fault.hpp"
#include "store/format.hpp"
#include "store/segment.hpp"
#include "store/wal.hpp"
#include "util/thread.hpp"
#include "util/thread_annotations.hpp"

namespace dlc::store {

struct StoreConfig {
  StoreMode mode = StoreMode::kMemory;
  /// Store directory; required unless kMemory.
  std::string dir;
  /// Created when missing (false turns a missing dir into an open error).
  bool create_dir = true;
  /// Retention over sealed segments, seconds (0 = keep forever).  A
  /// segment expires when now >= its newest row's timestamp + retention
  /// (exactly-at-TTL counts as expired).
  std::uint64_t retention_s = 0;
  /// Rows buffered per shard before an automatic group commit.
  std::size_t wal_group_records = 64;
  /// WAL size that triggers sealing into a segment (tiered mode).
  std::size_t seal_bytes = 4 * 1024 * 1024;
  /// Segments smaller than this are compaction candidates.
  std::size_t compact_min_bytes = 1024 * 1024;
  /// Max segments merged per compaction step.
  std::size_t compact_fanin = 8;
  /// Background compaction period (0 = no thread; call compact_once()/
  /// apply_retention() manually — what the deterministic tests do).
  std::uint64_t compact_interval_ms = 0;
  /// Injectable clock for retention tests; default std::time.
  std::function<std::int64_t()> now_unix_s;
};

/// Thrown when an armed crash point fires: "the process died here".
class StoreCrash : public std::runtime_error {
 public:
  explicit StoreCrash(const std::string& what) : std::runtime_error(what) {}
};

/// Where a FaultPlan `storecrash` directive can kill the store.
enum class CrashPoint : std::uint8_t {
  kWalCommit = 0,    // mid group-commit: torn WAL tail
  kSeal = 1,         // mid segment write: stray .seg.tmp, WAL intact
  kCompactWrite = 2, // mid compaction output write: stray .seg.tmp
  kCompactSwap = 3,  // after rename, before input deletes: replaces dup
};
inline constexpr std::size_t kCrashPointCount = 4;

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
  std::uint64_t segments_loaded = 0;
  std::uint64_t rows_from_segments = 0;
  std::uint64_t wal_frames = 0;
  std::uint64_t rows_from_wal = 0;
  /// WAL rows already covered by a sealed segment (the crash-between-
  /// seal-and-truncate window) — skipped, not duplicated.
  std::uint64_t wal_rows_skipped = 0;
  std::uint64_t torn_tails = 0;      // WALs truncated at a torn frame
  std::uint64_t torn_wal_bytes = 0;  // bytes quarantined off WAL tails
  /// Segments renamed to .quarantined (bad header/data CRC, truncation,
  /// unknown version) plus stray .seg.tmp files deleted.
  std::uint64_t quarantined_segments = 0;
  /// Segments dropped because a live segment's header replaces them
  /// (compaction crashed after the swap rename).
  std::uint64_t replaced_dropped = 0;
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

  /// Recovers the directory into `cluster` (segments, then WAL tails),
  /// attaches a commit sink to every shard and starts the compactor if
  /// configured.  The cluster must outlive the store or be detached via
  /// close().  Throws std::logic_error on double-open (this instance,
  /// another instance on the same directory, or a container that is
  /// already attached to a store) and std::runtime_error on a missing
  /// store directory with create_dir == false.
  RecoveryReport open(dsos::DsosCluster& cluster);

  /// Commits pending rows, detaches every sink, stops the compactor and
  /// releases the directory.  Idempotent; safe on a crashed store (the
  /// final flush is skipped — the process is "dead").
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
  /// Seals every shard's unsealed rows regardless of seal_bytes
  /// (tiered mode; end-of-campaign flush to cold storage).
  void seal_all();
  /// One compaction sweep; returns segments merged away.
  std::size_t compact_once();
  /// Deletes expired segments; returns how many.
  std::size_t apply_retention();

  /// Ack frontier: every row of `shard` with seq <= durable_seq(shard)
  /// survives a crash.
  std::uint64_t durable_seq(std::size_t shard) const;
  std::uint64_t recovered_high_seq(std::size_t shard) const;

  struct ColdQueryStats {
    std::uint64_t segments_total = 0;
    std::uint64_t pruned = 0;  // answered from the header zone maps
    std::uint64_t read = 0;    // data blocks actually decoded
  };

  /// At-rest query over sealed segments only (the hot path stays the
  /// Container API): prunes on persisted zone maps, decodes surviving
  /// blocks, filters rows.  Results in (shard, seq) order.
  std::vector<dsos::Object> query_cold(std::string_view schema_name,
                                       const dsos::Filter& filter,
                                       ColdQueryStats* stats = nullptr) const;

  /// /api/store payload: mode, per-shard WAL/segment state, counters.
  std::string status_json() const;

 private:
  struct Shard;

  std::int64_t now_unix_s() const;
  void require_open(const char* op) const;
  void mark_crashed() const;
  RecoveryReport recover_shard(Shard& shard);
  void compactor_loop();
  std::size_t compact_shard(Shard& shard);
  std::size_t retention_shard(Shard& shard, std::int64_t now);

  StoreConfig config_;
  FaultInjector faults_;
  RecoveryReport recovery_;

  mutable util::Mutex state_m_{"StoreState"};
  dsos::DsosCluster* cluster_ DLC_GUARDED_BY(state_m_) = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;  // stable between open/close
  std::uint64_t compactions_ DLC_GUARDED_BY(state_m_) = 0;
  std::uint64_t retention_deleted_ DLC_GUARDED_BY(state_m_) = 0;

  // atomic-protocol: kind=flag pairs=SegmentStore::open/close
  std::atomic<bool> open_{false};
  // atomic-protocol: kind=flag pairs=crash-injection-test-hooks
  mutable std::atomic<bool> crashed_{false};
  // atomic-protocol: kind=counter pairs=segment-id-allocation
  std::atomic<std::uint64_t> next_segment_id_{1};
  // atomic-protocol: kind=gauge pairs=SegmentStore::stats
  std::atomic<std::int64_t> live_segments_{0};

  util::Mutex compact_m_{"StoreCompactor"};
  util::CondVar compact_cv_;
  bool compact_stop_ DLC_GUARDED_BY(compact_m_) = false;
  util::Thread compact_thread_;
};

}  // namespace dlc::store
