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

/// One shard's WAL and the sequence its next group starts after.
struct Log::Shard {
  mutable util::Mutex m{"StoreLog"};
  WalWriter wal DLC_GUARDED_BY(m);
  /// Ack frontier: everything <= durable survives a crash.  Seqs are
  /// 1-based per shard; a group takes durable + 1 onward.
  std::uint64_t durable DLC_GUARDED_BY(m) = 0;
  /// Schema names already written to the WAL as dictionary frames.
  std::set<std::string, std::less<>> wal_schemas DLC_GUARDED_BY(m);
};

Log::Log() = default;
Log::~Log() { close(); }

RecoveryReport Log::open(const std::string& dir, bool create_dir,
                         std::size_t shards, const ReplaySink& replay) {
  if (is_open()) throw std::logic_error("store: double open of the same log");
  if (crashed()) {
    throw std::logic_error(
        "store: reopening a crashed instance — the simulated process died; "
        "recover by constructing a new Store on the same directory");
  }
  if (!fs::exists(dir)) {
    if (!create_dir) {
      throw std::runtime_error("store: missing store directory '" + dir +
                               "' (create it or set create_dir)");
    }
    fs::create_directories(dir);
  } else if (!fs::is_directory(dir)) {
    throw std::runtime_error("store: '" + dir +
                             "' exists but is not a directory");
  }
  // An older build sealed WAL rows into *.seg files and emptied the WAL
  // behind them; recovering without those rows would silently drop
  // acknowledged data.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") {
      throw std::runtime_error(
          "store: '" + entry.path().string() +
          "' is a sealed segment written by an older build; this build "
          "recovers from the write-ahead log only and would lose its rows");
    }
  }
  register_dir(dir);

  RecoveryReport rep;
  rep.high_seq.assign(shards, 0);
  try {
    shards_.clear();
    for (std::size_t s = 0; s < shards; ++s) {
      auto shard = std::make_unique<Shard>();
      const std::string wal_path = (fs::path(dir) / wal_file_name(s)).string();
      WalReplay wal;
      if (!replay_wal(wal_path, &wal)) {
        throw std::runtime_error("store: cannot replay WAL '" + wal_path +
                                 "'");
      }
      rep.wal_frames += wal.frames;
      rep.rows_from_wal += wal.rows.size();
      rep.torn_wal_bytes += wal.torn_bytes;
      if (wal.torn_bytes != 0) ++rep.torn_tails;
      rep.high_seq[s] = wal.last_seq;
      {
        const util::LockGuard shard_lock(shard->m);
        shard->durable = wal.last_seq;
        for (const dsos::SchemaPtr& schema : wal.schemas) {
          // Still described in the (truncated-to-valid) log file.
          shard->wal_schemas.insert(schema->name());
        }
        if (!shard->wal.open(wal_path)) {
          throw std::runtime_error("store: cannot open WAL '" + wal_path +
                                   "' for appending");
        }
      }
      replay(s, wal);
      shards_.push_back(std::move(shard));
    }
  } catch (...) {
    shards_.clear();
    unregister_dir(dir);
    throw;
  }
  dir_ = dir;
  open_.store(true, std::memory_order_release);
  if (obs::enabled()) {
    StoreObs& o = store_obs();
    o.recovered_rows.add(rep.rows_from_wal);
    o.torn_tails.add(rep.torn_tails);
  }
  return rep;
}

bool Log::commit(std::size_t shard,
                 const std::vector<const dsos::Object*>& rows) {
  if (!is_open()) return false;
  Shard& sh = *shards_[shard];
  const util::LockGuard lock(sh.m);
  if (crashed()) return false;
  if (rows.empty()) return true;
  const std::uint64_t t0 = util::now_ns();
  // Dictionary frames for schemas this log has not described yet — they
  // must precede the data frame that references them.
  for (const dsos::Object* row : rows) {
    const std::string& name = row->schema->name();
    if (sh.wal_schemas.contains(name)) continue;
    if (!sh.wal.append_schema(*row->schema)) {
      mark_crashed();
      return false;
    }
    sh.wal_schemas.insert(name);
  }
  const std::size_t bytes_before = sh.wal.bytes();
  if (faults_.should_crash(CrashPoint::kWalCommit)) {
    sh.wal.append_group(sh.durable + 1, rows, kTornFrameBytes);
    mark_crashed();
    throw StoreCrash("storecrash: wal commit (torn group frame)");
  }
  // A failed write may leave part of the frame behind; appending after
  // it would hide every later group from replay.
  if (!sh.wal.append_group(sh.durable + 1, rows)) {
    mark_crashed();
    return false;
  }
  sh.durable += rows.size();
  if (obs::enabled()) {
    StoreObs& o = store_obs();
    o.wal_commits.add();
    o.wal_records.add(rows.size());
    o.wal_bytes.add(sh.wal.bytes() - bytes_before);
    o.wal_commit_ns.record(util::now_ns() - t0);
  }
  return true;
}

void Log::mark_crashed() {
  crashed_.store(true, std::memory_order_release);
  // The simulated process is dead: its claim on the directory dies with
  // it, so recovery can open a fresh log on the same dir.
  unregister_dir(dir_);
}

void Log::close() {
  if (!is_open()) return;
  for (auto& shard : shards_) {
    const util::LockGuard shard_lock(shard->m);
    shard->wal.close();
  }
  if (!crashed()) unregister_dir(dir_);  // a crash already released it
  open_.store(false, std::memory_order_release);
}

std::uint64_t Log::durable_seq(std::size_t shard) const {
  if (shard >= shards_.size()) return 0;
  const util::LockGuard shard_lock(shards_[shard]->m);
  return shards_[shard]->durable;
}

/// One shard's CommitSink: references to the rows its Container inserted
/// since the last commit.  A std::deque never moves an element, so a row
/// reference stays valid until the cluster dies.
struct Store::Sink final : dsos::CommitSink {
  Sink(Log& l, std::size_t s, std::size_t group)
      : log(l), shard(s), group_records(group) {}

  void on_insert(const dsos::Object& obj) override {
    if (log.crashed()) return;  // dead process: drop silently, never ack
    const util::LockGuard lock(m);
    pending.push_back(&obj);
    if (pending.size() >= group_records) commit_locked();
  }
  bool on_commit() override {
    const util::LockGuard lock(m);
    return commit_locked();
  }
  /// The pending rows are dropped whether the group lands or not: a
  /// failed group deadens the log, and its rows were never acked.  (A
  /// fired crash leaves them to close(), like the rest of a dead store.)
  bool commit_locked() DLC_REQUIRES(m) {
    const bool durable = log.commit(shard, pending);
    pending.clear();
    return durable;
  }

  Log& log;
  const std::size_t shard;
  const std::size_t group_records;
  util::Mutex m{"StoreShard"};
  std::vector<const dsos::Object*> pending DLC_GUARDED_BY(m);
};

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

RecoveryReport Store::open(dsos::DsosCluster& cluster) {
  const util::LockGuard lock(state_m_);
  if (is_open()) {
    throw std::logic_error("store: double open of the same Store instance");
  }
  RecoveryReport rep;
  if (config_.mode == StoreMode::kMemory) {
    rep.high_seq.assign(cluster.shard_count(), 0);
    cluster_ = &cluster;
    open_.store(true, std::memory_order_release);
    return rep;
  }
  if (config_.dir.empty()) {
    throw std::runtime_error(
        "store: tiered mode needs a store directory "
        "(StoreConfig::dir)");
  }
  // Sinks are not attached yet, so the replayed inserts do not loop
  // back into the WAL.
  rep = log_.open(config_.dir, config_.create_dir, cluster.shard_count(),
                  [&cluster](std::size_t s, WalReplay& wal) {
                    for (const dsos::SchemaPtr& schema : wal.schemas) {
                      cluster.register_schema(schema);
                    }
                    for (dsos::Object& row : wal.rows) {
                      cluster.insert_at(s, std::move(row));
                    }
                  });
  // Attach sinks last: from here on inserts flow into the WAL.
  sinks_.clear();
  std::size_t attached = 0;
  try {
    for (; attached < cluster.shard_count(); ++attached) {
      sinks_.push_back(
          std::make_unique<Sink>(log_, attached, config_.wal_group_records));
      cluster.shard(attached).container().set_commit_sink(
          sinks_.back().get());
    }
  } catch (...) {
    for (std::size_t s = 0; s < attached; ++s) {
      cluster.shard(s).container().set_commit_sink(nullptr);
    }
    sinks_.clear();
    log_.close();
    throw;
  }
  cluster_ = &cluster;
  open_.store(true, std::memory_order_release);
  return rep;
}

void Store::close() {
  const util::LockGuard lock(state_m_);
  if (!is_open()) return;
  for (auto& sink : sinks_) {
    const util::LockGuard sink_lock(sink->m);
    // Final durability barrier.  A crash armed to fire here is honored:
    // the store deadens mid-flush, exactly like a death during shutdown.
    try {
      if (!crashed()) sink->commit_locked();
    } catch (const StoreCrash&) {
    }
    // The rows belong to the cluster, which may die once detached.
    sink->pending.clear();
  }
  if (cluster_ != nullptr) {
    for (std::size_t s = 0; s < cluster_->shard_count() && s < sinks_.size();
         ++s) {
      cluster_->shard(s).container().set_commit_sink(nullptr);
    }
    cluster_ = nullptr;
  }
  log_.close();
  open_.store(false, std::memory_order_release);
}

void Store::flush_all() {
  if (!is_open()) {
    throw std::logic_error("store: flush_all on a store that is not open");
  }
  for (auto& sink : sinks_) {
    const util::LockGuard sink_lock(sink->m);
    sink->commit_locked();
  }
}

}  // namespace dlc::store
