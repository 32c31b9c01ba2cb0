#include "store/store.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "obs/registry.hpp"
#include "util/clock.hpp"

namespace dlc::store {

namespace fs = std::filesystem;

namespace {

/// Bytes of the framed WAL record written before the injected "process
/// death": the full 8-byte length prefix plus a sliver of the body, so
/// replay sees a prefix promising more bytes than exist — the classic
/// torn tail.
constexpr std::size_t kTornFrameBytes = 12;

/// Registry mirrors (cached once; see obs/registry.hpp).
struct StoreObs {
  obs::Counter& wal_commits;
  obs::Counter& wal_records;
  obs::Counter& wal_bytes;
  obs::LogHistogram& wal_commit_ns;
  obs::Counter& recovered_rows;
  obs::Counter& torn_tails;
};

StoreObs& store_obs() {
  obs::Registry& reg = obs::Registry::global();
  static StoreObs o{
      reg.counter("dlc.store.wal_commits"),
      reg.counter("dlc.store.wal_records"),
      reg.counter("dlc.store.wal_bytes"),
      reg.histogram("dlc.store.wal_commit_ns"),
      reg.counter("dlc.store.recovered_rows"),
      reg.counter("dlc.store.torn_tails"),
  };
  return o;
}

/// Process-wide set of open store directories.  This is the flock
/// analog for the simulated-crash model: a directory stays claimed
/// while a live Store owns it and is released by close() or by a fired
/// crash (the "process" died, so its lock died with it).  A double open
/// lands here and fails loudly.
struct DirRegistry {
  util::Mutex m{"StoreDirRegistry"};
  std::set<std::string> dirs DLC_GUARDED_BY(m);
};

DirRegistry& dir_registry() {
  static DirRegistry r;
  return r;
}

std::string canonical_dir(const std::string& dir) {
  std::error_code ec;
  const fs::path c = fs::weakly_canonical(dir, ec);
  return ec ? dir : c.string();
}

void register_dir(const std::string& dir) {
  DirRegistry& r = dir_registry();
  const util::LockGuard lock(r.m);
  if (!r.dirs.insert(canonical_dir(dir)).second) {
    throw std::logic_error(
        "store: directory '" + dir +
        "' is already open in this process (double-open, or opening while "
        "the owning store is still live — close it first)");
  }
}

void unregister_dir(const std::string& dir) {
  DirRegistry& r = dir_registry();
  const util::LockGuard lock(r.m);
  r.dirs.erase(canonical_dir(dir));
}

}  // namespace

std::string_view crash_point_name(CrashPoint p) {
  switch (p) {
    case CrashPoint::kWalCommit:
      return "commit";
  }
  return "?";
}

bool crash_point_from_name(std::string_view name, CrashPoint& out) {
  for (std::size_t i = 0; i < kCrashPointCount; ++i) {
    const auto p = static_cast<CrashPoint>(i);
    if (name == crash_point_name(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

void FaultInjector::arm(CrashPoint p, std::uint64_t after_n) {
  after_[static_cast<std::size_t>(p)].store(after_n,
                                            std::memory_order_relaxed);
}

std::size_t FaultInjector::arm_from_plan(const relia::FaultPlan& plan) {
  std::size_t armed = 0;
  for (const relia::FaultEvent& e : plan.events) {
    if (e.kind != relia::FaultKind::kStoreCrash) continue;
    CrashPoint p;
    if (!crash_point_from_name(e.daemon, p)) continue;
    arm(p, e.count);
    ++armed;
  }
  return armed;
}

bool FaultInjector::should_crash(CrashPoint p) {
  auto& a = after_[static_cast<std::size_t>(p)];
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur != 0) {
    if (a.compare_exchange_weak(cur, cur - 1, std::memory_order_relaxed)) {
      return cur == 1;  // this was the armed occurrence
    }
  }
  return false;
}

/// One shard's durable state: the CommitSink its Container calls into.
/// Its pending rows are the Container's own: a std::deque never moves
/// an element, so a row reference stays valid until the cluster dies.
struct Store::Shard final : dsos::CommitSink {
  Store* store = nullptr;

  mutable util::Mutex m{"StoreShard"};
  WalWriter wal DLC_GUARDED_BY(m);
  /// Ack frontier: everything <= durable survives a crash.  Seqs are
  /// 1-based per shard; the pending rows take durable + 1 onward.
  std::uint64_t durable DLC_GUARDED_BY(m) = 0;
  /// Rows inserted but not yet group-committed (lost on crash — and
  /// never acked, so the at-least-once driver resubmits them).
  std::vector<const dsos::Object*> pending DLC_GUARDED_BY(m);
  /// Schema names already written to the WAL as dictionary frames.
  std::set<std::string, std::less<>> wal_schemas DLC_GUARDED_BY(m);

  void on_insert(const dsos::Object& obj) override;
  bool on_commit() override;
  bool commit_locked() DLC_REQUIRES(m);
};

void Store::Shard::on_insert(const dsos::Object& obj) {
  if (store->crashed()) return;  // dead process: drop silently, never ack
  const util::LockGuard lock(m);
  pending.push_back(&obj);
  if (pending.size() >= store->config_.wal_group_records) commit_locked();
}

bool Store::Shard::on_commit() {
  if (store->crashed()) return false;
  const util::LockGuard lock(m);
  return commit_locked();
}

bool Store::Shard::commit_locked() {
  if (store->crashed()) return false;
  if (pending.empty()) return true;
  const std::uint64_t t0 = util::now_ns();
  // Dictionary frames for schemas this log has not described yet — they
  // must precede the data frame that references them.
  for (const dsos::Object* row : pending) {
    const std::string& name = row->schema->name();
    if (wal_schemas.contains(name)) continue;
    if (!wal.append_schema(*row->schema)) return false;
    wal_schemas.insert(name);
  }
  const std::size_t bytes_before = wal.bytes();
  if (store->faults_.should_crash(CrashPoint::kWalCommit)) {
    wal.append_group(durable + 1, pending, kTornFrameBytes);
    store->mark_crashed();
    throw StoreCrash("storecrash: wal commit (torn group frame)");
  }
  if (!wal.append_group(durable + 1, pending)) return false;
  durable += pending.size();
  if (obs::enabled()) {
    StoreObs& o = store_obs();
    o.wal_commits.add();
    o.wal_records.add(pending.size());
    o.wal_bytes.add(wal.bytes() - bytes_before);
    o.wal_commit_ns.record(util::now_ns() - t0);
  }
  pending.clear();
  return true;
}

Store::Store(StoreConfig config) : config_(std::move(config)) {
  config_.wal_group_records = std::max<std::size_t>(1, config_.wal_group_records);
}

Store::~Store() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; close() failures are already loud at
    // every explicit call site.
  }
}

void Store::require_open(const char* op) const {
  if (!is_open()) {
    throw std::logic_error(std::string("store: ") + op +
                           " on a store that is not open");
  }
}

void Store::mark_crashed() const {
  crashed_.store(true, std::memory_order_release);
  // The simulated process is dead: its claim on the directory dies with
  // it, so recovery can open a fresh Store on the same dir.
  if (config_.mode != StoreMode::kMemory && !config_.dir.empty()) {
    unregister_dir(config_.dir);
  }
}

RecoveryReport Store::open(dsos::DsosCluster& cluster) {
  const util::LockGuard lock(state_m_);
  if (open_.load(std::memory_order_acquire)) {
    throw std::logic_error("store: double open of the same Store instance");
  }
  if (crashed()) {
    throw std::logic_error(
        "store: reopening a crashed instance — the simulated process died; "
        "recover by constructing a new Store on the same directory");
  }
  recovery_ = RecoveryReport{};
  recovery_.high_seq.assign(cluster.shard_count(), 0);

  if (config_.mode == StoreMode::kMemory) {
    cluster_ = &cluster;
    open_.store(true, std::memory_order_release);
    return recovery_;
  }

  if (config_.dir.empty()) {
    throw std::runtime_error(
        "store: tiered mode needs a store directory "
        "(StoreConfig::dir)");
  }
  if (!fs::exists(config_.dir)) {
    if (!config_.create_dir) {
      throw std::runtime_error("store: missing store directory '" +
                               config_.dir +
                               "' (create it or set create_dir)");
    }
    fs::create_directories(config_.dir);
  } else if (!fs::is_directory(config_.dir)) {
    throw std::runtime_error("store: '" + config_.dir +
                             "' exists but is not a directory");
  }
  // An older build sealed WAL rows into *.seg files and emptied the WAL
  // behind them; recovering without those rows would silently drop
  // acknowledged data.
  for (const auto& entry : fs::directory_iterator(config_.dir)) {
    if (entry.path().extension() == ".seg") {
      throw std::runtime_error(
          "store: '" + entry.path().string() +
          "' is a sealed segment written by an older build; this build "
          "recovers from the write-ahead log only and would lose its rows");
    }
  }
  register_dir(config_.dir);

  try {
    // Per shard: replay the WAL (truncating any torn tail) into the
    // container.  Sinks are not attached yet, so these inserts do not
    // loop back into us.
    shards_.clear();
    shards_.reserve(cluster.shard_count());
    for (std::size_t s = 0; s < cluster.shard_count(); ++s) {
      auto shard = std::make_unique<Shard>();
      shard->store = this;
      const std::string wal_path =
          (fs::path(config_.dir) / wal_file_name(s)).string();
      WalReplay replay;
      if (!replay_wal(wal_path, &replay)) {
        throw std::runtime_error("store: cannot replay WAL '" + wal_path +
                                 "'");
      }
      for (const dsos::SchemaPtr& schema : replay.schemas) {
        cluster.register_schema(schema);
      }
      for (dsos::Object& row : replay.rows) {
        cluster.insert_at(s, std::move(row));
      }
      recovery_.wal_frames += replay.frames;
      recovery_.rows_from_wal += replay.rows.size();
      recovery_.torn_wal_bytes += replay.torn_bytes;
      if (replay.torn_bytes != 0) ++recovery_.torn_tails;
      recovery_.high_seq[s] = replay.last_seq;

      const util::LockGuard shard_lock(shard->m);
      shard->durable = replay.last_seq;
      for (const dsos::SchemaPtr& schema : replay.schemas) {
        // Still described in the (truncated-to-valid) log file.
        shard->wal_schemas.insert(schema->name());
      }
      if (!shard->wal.open(wal_path)) {
        throw std::runtime_error("store: cannot open WAL '" + wal_path +
                                 "' for appending");
      }
      shards_.push_back(std::move(shard));
    }

    // Attach sinks last: from here on inserts flow into the WAL.
    std::size_t attached = 0;
    try {
      for (; attached < cluster.shard_count(); ++attached) {
        cluster.shard(attached).container().set_commit_sink(
            shards_[attached].get());
      }
    } catch (...) {
      for (std::size_t s = 0; s < attached; ++s) {
        cluster.shard(s).container().set_commit_sink(nullptr);
      }
      throw;
    }
    cluster_ = &cluster;
    open_.store(true, std::memory_order_release);

    if (obs::enabled()) {
      StoreObs& o = store_obs();
      o.recovered_rows.add(recovery_.rows_from_wal);
      o.torn_tails.add(recovery_.torn_tails);
    }
  } catch (...) {
    shards_.clear();
    unregister_dir(config_.dir);
    throw;
  }
  return recovery_;
}

void Store::close() {
  const util::LockGuard lock(state_m_);
  if (!open_.load(std::memory_order_acquire)) return;
  if (!crashed()) {
    // Final durability barrier.  A crash armed to fire here is honored:
    // the store deadens mid-flush, exactly like a death during shutdown.
    try {
      for (auto& shard_ptr : shards_) {
        const util::LockGuard shard_lock(shard_ptr->m);
        shard_ptr->commit_locked();
      }
    } catch (const StoreCrash&) {
    }
  }
  for (auto& shard_ptr : shards_) {
    const util::LockGuard shard_lock(shard_ptr->m);
    shard_ptr->wal.close();
    // The rows belong to the cluster, which may die once detached.
    shard_ptr->pending.clear();
  }
  if (cluster_ != nullptr) {
    for (std::size_t s = 0;
         s < cluster_->shard_count() && s < shards_.size(); ++s) {
      cluster_->shard(s).container().set_commit_sink(nullptr);
    }
    cluster_ = nullptr;
  }
  if (config_.mode != StoreMode::kMemory && !crashed()) {
    unregister_dir(config_.dir);  // a crash already released it
  }
  open_.store(false, std::memory_order_release);
}

void Store::flush_all() {
  require_open("flush_all");
  if (crashed()) return;
  for (auto& shard_ptr : shards_) {
    const util::LockGuard shard_lock(shard_ptr->m);
    shard_ptr->commit_locked();
  }
}

std::uint64_t Store::durable_seq(std::size_t shard) const {
  if (shard >= shards_.size()) return 0;
  const util::LockGuard shard_lock(shards_[shard]->m);
  return shards_[shard]->durable;
}

}  // namespace dlc::store
