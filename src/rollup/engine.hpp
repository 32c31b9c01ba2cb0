// Rollup engine: the storage-policy decomposition stage of the
// ingest -> store -> serve spine (DESIGN.md §8).
//
// attach() mounts one commit observer (dsos::CommitSink) on every shard
// of the raw cluster.  From then on each decoded event is matched
// against every policy on its shard's single writer thread and folded
// at insert into that (policy, shard)'s *open* cells under the
// RollupShard lock; Container::commit() — the same barrier the durable
// store group-commits on — moves ripe cells into the ordered *sealed*
// map under the same lock.  Each cell lives in exactly one of the two,
// and queries read both in place.
//
// Bucket lifecycle: a cell's bucket seals once the shard's max event
// timestamp passes bucket end + grace.  With a durable store mode, each
// seal batch is also encoded as `rollup_cell` rows and committed as one
// group to the engine's own store::Log (one WAL in the spill directory),
// which keeps nothing afterwards, so rollups survive restart without a
// second in-memory copy.  Each spilled row records the seal watermark;
// recovery decodes the replayed rows once into the sealed maps, then
// rebuilds the open tail by replaying the recovered raw cluster in
// original per-shard insertion order — making post-crash rollups
// byte-identical to an uninterrupted run.
// Events older than the sealed frontier are dropped and counted
// (dlc.rollup.late_dropped); with the default grace of 2 bucket widths
// this never fires on in-order-ish streams.
//
// A spill whose group commit fails deadens the engine: crashed() turns
// true, the batch is neither counted nor shown to observers, and served
// panels fall back to raw scans.  The spill log's `commit` crash point
// (relia::FaultPlan `storecrash commit`) tears the group frame instead,
// throws store::StoreCrash and deadens the engine the same way.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dsos/cluster.hpp"
#include "obs/registry.hpp"
#include "relia/fault.hpp"
#include "rollup/cell.hpp"
#include "rollup/policy.hpp"
#include "store/store.hpp"
#include "util/thread_annotations.hpp"

namespace dlc::rollup {

struct RollupEngineConfig {
  std::vector<PolicyConfig> policies;
  /// Durability of sealed cells (memory keeps them queryable only and
  /// encodes no rows).
  store::StoreMode store_mode = store::StoreMode::kMemory;
  /// Spill-store directory (ConnectorConfig::rollup_dir); required unless
  /// kMemory.
  std::string dir;
  /// Has no effect: nothing expires sealed rollup rows.  Kept only
  /// because e2ebench/bench.cpp assigns it.
  std::uint64_t retention_s = 0;
};

/// Observer of sealed batches — how downstream streaming stages (the
/// anomaly engine) ride the seal path, mirroring how the engine itself
/// rides dsos::CommitSinks.  on_sealed fires after the batch has been
/// durably spilled (never for a batch whose spill failed), on the
/// thread that drove the commit (a shard writer thread, or the
/// drain/flush thread), with cells in canonical CellKey order and NO
/// engine lock held — observers may query the engine or take their own
/// locks freely.  Batches sealed by the attach()-time recovery replay
/// fire too when the observer is registered before attach(); register
/// after attach() to see only live seals.
class SealObserver {
 public:
  virtual ~SealObserver() = default;
  virtual void on_sealed(std::string_view policy, std::size_t shard,
                         double watermark,
                         const std::vector<std::pair<CellKey, CellAgg>>&
                             cells) = 0;
};

/// What attach() reconstructed.
struct RollupRecovery {
  std::uint64_t sealed_rows = 0;      // rows restored from the spill log
  std::uint64_t replayed_events = 0;  // raw events rebuilt into open cells
  store::RecoveryReport store;        // spill log's own report
};

struct RollupStats {
  std::uint64_t events = 0;        // raw events folded (sum over policies)
  std::uint64_t late_dropped = 0;  // events behind a sealed frontier
  std::uint64_t cells_open = 0;
  std::uint64_t sealed_rows = 0;  // cells sealed (and spilled) by this instance
  std::uint64_t spills = 0;       // seal batches (atomic spill commits)
};

/// Query over one policy's cells.  Sealed and open contributions for
/// the same (key, shard) merge in canonical shard order, so results do
/// not depend on how much has sealed — the crash-campaign invariant.
struct RollupQuery {
  std::vector<std::uint64_t> jobs;  // empty = all
  std::vector<std::string> ops;     // empty = all
  std::string producer;             // empty = all
  std::optional<std::int64_t> rank;
  double from_s = -std::numeric_limits<double>::infinity();  // bucket >=
  double to_s = std::numeric_limits<double>::infinity();     // bucket <
  /// 0 = the policy's own width; otherwise an integer multiple of it,
  /// and cells are re-aggregated into the coarser buckets.
  double bucket_s = 0.0;
};

class RollupEngine {
 public:
  explicit RollupEngine(RollupEngineConfig config);
  ~RollupEngine();

  RollupEngine(const RollupEngine&) = delete;
  RollupEngine& operator=(const RollupEngine&) = delete;

  /// Opens the spill log (recovering sealed cells), registers a
  /// commit observer on every shard of `raw` and rebuilds the unsealed
  /// tail from the cluster's current contents.  Call before ingest
  /// starts; idempotent for the same cluster, throws std::logic_error
  /// for a second one and std::runtime_error when a recovered row does
  /// not decode or names a shard `raw` lacks.  The cluster must outlive
  /// the engine or be released via detach().
  RollupRecovery attach(dsos::DsosCluster& raw);

  /// Removes the observers and closes the spill log (a later flush()
  /// seals in memory only).  Idempotent.
  void detach();
  bool attached() const { return raw_ != nullptr; }

  /// Seals what the watermarks allow.  Runs the commit path on every
  /// shard — call only at quiescent points (after
  /// IngestExecutor::drain(), or under serial ingest where no commits
  /// happen otherwise).
  void flush();

  /// flush() + seal every open cell regardless of watermark (end of
  /// campaign / orderly shutdown: push everything to the spill log).
  void seal_all();

  const std::vector<PolicyConfig>& policies() const { return policies_; }
  const PolicyConfig* find_policy(std::string_view name) const;
  std::size_t shard_count() const { return shards_.size(); }

  /// Registers/removes a seal observer (see SealObserver).  Safe at any
  /// time; the observer must outlive the engine or be removed first.
  void add_seal_observer(SealObserver* observer);
  void remove_seal_observer(SealObserver* observer);

  /// Arms the spill log's `storecrash commit after <n>` directives
  /// (none unless attached in a durable store mode).  Returns how many
  /// were armed.  Only under serial ingest — a StoreCrash unwinding a
  /// worker thread would terminate the process for real.
  std::size_t arm_from_plan(const relia::FaultPlan& plan);
  /// True once the spill log died: a group commit failed or its armed
  /// crash point fired.  The engine is inert from then on.
  bool crashed() const { return spill_log_.crashed(); }

  const RollupRecovery& recovery() const { return recovery_; }

  std::vector<RollupCell> query(std::string_view policy,
                                const RollupQuery& q) const;

  RollupStats stats() const;
  /// /api/rollup payload: policies with per-policy cell counts, totals,
  /// spill state.
  std::string status_json() const;

 private:
  struct ShardSink;

  /// Resolved Table I attribute ids for one raw schema (cached per
  /// shard; events of schemas missing any of these are ignored).
  struct AttrIds {
    std::size_t job = 0, producer = 0, rank = 0, op = 0, module = 0;
    std::size_t seg_len = 0, seg_dur = 0, seg_ts = 0;
    bool valid = false;
  };

  /// The cells of one (policy, shard).  `open` cells accumulate at
  /// insert, in insert order — never as merged partial sums — so the
  /// double `dur_sum` is bit-identical to a raw scan of the shard in
  /// slot order regardless of commit batching.  A commit moves ripe
  /// cells into `sealed`, which is ordered so a job filter can seek it.
  /// A sealed cell never changes or leaves the map, so a query may read
  /// it after releasing the lock.  Events whose bucket ends at or
  /// before `watermark` are late.
  struct CellStore {
    std::unordered_map<CellKey, CellAgg, CellKeyHash> open;
    std::map<CellKey, CellAgg> sealed;
    double max_ts = -std::numeric_limits<double>::infinity();
    double watermark = -std::numeric_limits<double>::infinity();
  };

  /// Policy pre-compiled against Table I types (match values parsed,
  /// key dimensions as flags) so the per-event path does no parsing.
  struct CompiledPolicy {
    bool key_job = false, key_producer = false, key_rank = false;
    bool key_op = false, key_module = false;
    struct Clause {
      std::uint8_t dim = 0;  // index into kRollupDims
      std::vector<std::string> strs;
      std::vector<std::uint64_t> u64s;
      std::vector<std::int64_t> i64s;
    };
    std::vector<Clause> clauses;
  };

  struct ShardState {
    mutable util::Mutex m{"RollupShard"};
    std::vector<CellStore> cells DLC_GUARDED_BY(m);  // one per policy
    /// This shard's open-cell count as of its last commit — lets the
    /// dlc.rollup.cells_open gauge publish the engine-wide total
    /// without taking the other shards' locks on the commit path.
    // atomic-protocol: kind=gauge pairs=RollupEngine::stats
    std::atomic<std::uint64_t> open_count{0};
    // Writer-thread schema cache (unguarded by the single-writer
    // contract, like Container::objects_).
    const dsos::Schema* cached_schema = nullptr;
    AttrIds ids;
    std::unique_ptr<ShardSink> sink;
  };

  /// Copy of one policy's newly sealed cells, spilled and handed to
  /// the observers outside the shard lock.
  struct SealBatch {
    std::size_t policy = 0;
    double watermark = 0.0;
    std::vector<std::pair<CellKey, CellAgg>> cells;
  };

  void on_insert(std::size_t shard, const dsos::Object& obj);
  void on_commit(std::size_t shard, bool seal_everything = false);
  bool spill(std::size_t shard, const SealBatch& batch);
  void notify_sealed(std::size_t shard, const SealBatch& batch);
  const AttrIds& resolve_ids(ShardState& sh, const dsos::Object& obj);
  bool matches_policy(std::size_t policy, const dsos::Object& obj,
                      const AttrIds& ids) const;

  std::vector<PolicyConfig> policies_;
  std::vector<CompiledPolicy> compiled_;
  RollupEngineConfig config_;
  dsos::DsosCluster* raw_ = nullptr;
  std::vector<std::unique_ptr<ShardState>> shards_;
  RollupRecovery recovery_;
  bool replaying_ = false;  // attach()-time rebuild: skip metrics/drops

  /// Seal observers.  The mutex is a leaf taken only to copy the list;
  /// on_sealed itself runs with no engine lock held (RollupShard is
  /// released before notify_sealed).
  mutable util::Mutex observers_m_{"RollupObservers"};
  std::vector<SealObserver*> observers_ DLC_GUARDED_BY(observers_m_);

  /// Spill side: the log every seal batch is committed to as one group
  /// on its shard 0, open from attach() to detach() in a durable store
  /// mode only.  Its StoreLog lock is taken only after RollupShard is
  /// released (seal batches are copied out first), never nested.
  dsos::SchemaPtr cell_schema_;
  store::Log spill_log_;
  // atomic-protocol: kind=counter pairs=RollupEngine::stats
  std::atomic<std::uint64_t> events_{0};
  // atomic-protocol: kind=counter pairs=RollupEngine::stats
  std::atomic<std::uint64_t> late_dropped_{0};
  // atomic-protocol: kind=counter pairs=RollupEngine::stats
  std::atomic<std::uint64_t> sealed_rows_{0};
  // atomic-protocol: kind=counter pairs=RollupEngine::stats
  std::atomic<std::uint64_t> spills_{0};

  // Pre-resolved dlc.rollup.* instruments (nullptr when obs is off).
  obs::Counter* m_events_ = nullptr;
  obs::Counter* m_late_ = nullptr;
  obs::Counter* m_sealed_rows_ = nullptr;
  obs::Counter* m_spills_ = nullptr;
  obs::Gauge* m_cells_open_ = nullptr;
  obs::LogHistogram* m_query_ns_ = nullptr;
};

}  // namespace dlc::rollup
