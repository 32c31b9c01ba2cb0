#include "store/store.hpp"

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "json/writer.hpp"
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
  obs::Counter& seals;
  obs::LogHistogram& seal_ns;
  obs::Counter& recovered_rows;
  obs::Counter& torn_tails;
  obs::Counter& quarantined;
  obs::Gauge& segments_live;
  obs::Gauge& wal_backlog_bytes;
};

StoreObs& store_obs() {
  obs::Registry& reg = obs::Registry::global();
  static StoreObs o{
      reg.counter("dlc.store.wal_commits"),
      reg.counter("dlc.store.wal_records"),
      reg.counter("dlc.store.wal_bytes"),
      reg.histogram("dlc.store.wal_commit_ns"),
      reg.counter("dlc.store.seals"),
      reg.histogram("dlc.store.seal_ns"),
      reg.counter("dlc.store.recovered_rows"),
      reg.counter("dlc.store.torn_tails"),
      reg.counter("dlc.store.quarantined"),
      reg.gauge("dlc.store.segments_live"),
      reg.gauge("dlc.store.wal_backlog_bytes"),
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
    case CrashPoint::kSeal:
      return "seal";
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
/// Its rows are the Container's own: a std::deque never moves an
/// element, so a row reference stays valid until the cluster dies.
struct Store::Shard final : dsos::CommitSink {
  Store* store = nullptr;
  std::size_t index = 0;
  std::string wal_path;

  mutable util::Mutex m{"StoreShard"};
  WalWriter wal DLC_GUARDED_BY(m);
  /// Last assigned sequence (seqs are 1-based, per shard).
  std::uint64_t next_seq DLC_GUARDED_BY(m) = 0;
  /// Ack frontier: everything <= durable survives a crash.
  std::uint64_t durable DLC_GUARDED_BY(m) = 0;
  /// Rows inserted but not yet group-committed (lost on crash — and
  /// never acked, so the at-least-once driver resubmits them).
  std::vector<const dsos::Object*> pending DLC_GUARDED_BY(m);
  std::uint64_t pending_first DLC_GUARDED_BY(m) = 0;
  /// Committed rows still only in the WAL; sealing writes them from the
  /// container with no read-back of the log.
  std::vector<const dsos::Object*> unsealed DLC_GUARDED_BY(m);
  std::uint64_t unsealed_first DLC_GUARDED_BY(m) = 0;
  /// Schema names already written to the current WAL as dictionary
  /// frames (reset when the log is recycled after a seal).
  std::set<std::string, std::less<>> wal_schemas DLC_GUARDED_BY(m);
  /// Live sealed segments, sorted by first_seq.
  std::vector<SegmentMeta> segments DLC_GUARDED_BY(m);
  std::uint64_t wal_commit_count DLC_GUARDED_BY(m) = 0;
  std::uint64_t seal_count DLC_GUARDED_BY(m) = 0;

  void on_insert(const dsos::Object& obj) override;
  bool on_commit() override;
  bool commit_locked() DLC_REQUIRES(m);
  void seal_locked() DLC_REQUIRES(m);
};

void Store::Shard::on_insert(const dsos::Object& obj) {
  if (store->crashed()) return;  // dead process: drop silently, never ack
  const util::LockGuard lock(m);
  const std::uint64_t seq = ++next_seq;
  if (pending.empty()) pending_first = seq;
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
  if (!pending.empty()) {
    const std::uint64_t t0 = util::now_ns();
    // Dictionary frames for schemas this log has not described yet —
    // they must precede the data frame that references them.
    for (const dsos::Object* row : pending) {
      const std::string& name = row->schema->name();
      if (wal_schemas.contains(name)) continue;
      if (!wal.append_schema(*row->schema)) return false;
      wal_schemas.insert(name);
    }
    const std::size_t bytes_before = wal.bytes();
    if (store->faults_.should_crash(CrashPoint::kWalCommit)) {
      wal.append_group(pending_first, pending, kTornFrameBytes);
      store->mark_crashed();
      throw StoreCrash("storecrash: wal commit (torn group frame)");
    }
    if (!wal.append_group(pending_first, pending)) return false;
    durable = next_seq;
    ++wal_commit_count;
    if (unsealed.empty()) unsealed_first = pending_first;
    unsealed.insert(unsealed.end(), pending.begin(), pending.end());
    if (obs::enabled()) {
      StoreObs& o = store_obs();
      o.wal_commits.add();
      o.wal_records.add(pending.size());
      o.wal_bytes.add(wal.bytes() - bytes_before);
      o.wal_commit_ns.record(util::now_ns() - t0);
      o.wal_backlog_bytes.set(static_cast<std::int64_t>(wal.bytes()));
    }
    pending.clear();
  }
  if (wal.bytes() >= store->config_.seal_bytes) seal_locked();
  return durable == next_seq;
}

void Store::Shard::seal_locked() {
  if (unsealed.empty()) return;
  const std::uint64_t t0 = util::now_ns();
  SegmentMeta meta;
  meta.id = store->next_segment_id_.fetch_add(1, std::memory_order_relaxed);
  meta.shard = index;
  meta.first_seq = unsealed_first;
  meta.last_seq = unsealed_first + unsealed.size() - 1;
  meta.created_unix_s = static_cast<std::uint64_t>(std::time(nullptr));
  meta.path = (fs::path(store->config_.dir) /
               segment_file_name(index, meta.id))
                  .string();
  if (store->faults_.should_crash(CrashPoint::kSeal)) {
    write_segment(&meta, unsealed, /*fault_cap_bytes=*/64);
    store->mark_crashed();
    throw StoreCrash("storecrash: seal (torn .seg.tmp; WAL intact)");
  }
  if (!write_segment(&meta, unsealed)) return;  // I/O error: rows stay in WAL
  segments.push_back(std::move(meta));
  // Only after the segment is durably renamed may the WAL be emptied; a
  // crash between the two leaves rows in both places, which recovery
  // deduplicates by sequence.
  wal.recycle();
  wal_schemas.clear();
  unsealed.clear();
  unsealed_first = 0;
  ++seal_count;
  store->live_segments_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    StoreObs& o = store_obs();
    o.seals.add();
    o.seal_ns.record(util::now_ns() - t0);
    o.segments_live.set(
        store->live_segments_.load(std::memory_order_relaxed));
    o.wal_backlog_bytes.set(0);
  }
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
  register_dir(config_.dir);

  try {
    // Pass 1 — directory scan: stray tmp files die, unreadable segment
    // headers are quarantined, good headers are collected.
    std::vector<SegmentMeta> metas;
    for (const auto& entry : fs::directory_iterator(config_.dir)) {
      const std::string name = entry.path().filename().string();
      if (name.ends_with(".seg.tmp")) {
        fs::remove(entry.path());
        ++recovery_.quarantined_segments;
      } else if (name.ends_with(".seg")) {
        auto meta = read_segment_meta(entry.path().string());
        if (!meta || meta->shard >= cluster.shard_count()) {
          fs::rename(entry.path(), entry.path().string() + ".quarantined");
          ++recovery_.quarantined_segments;
        } else {
          metas.push_back(std::move(*meta));
        }
      }
    }

    // Pass 2 — drop segments a live header replaces (an older build's
    // compaction that died after its swap rename, before deleting its
    // inputs).
    std::set<std::uint64_t> replaced;
    for (const SegmentMeta& meta : metas) {
      replaced.insert(meta.replaces.begin(), meta.replaces.end());
    }
    std::uint64_t max_id = 0;
    std::vector<SegmentMeta> live;
    for (SegmentMeta& meta : metas) {
      max_id = std::max(max_id, meta.id);
      if (replaced.contains(meta.id)) {
        fs::remove(meta.path);
        ++recovery_.replaced_dropped;
      } else {
        live.push_back(std::move(meta));
      }
    }
    next_segment_id_.store(max_id + 1, std::memory_order_relaxed);

    // Pass 3 — per shard: replay segments (oldest first), then the WAL
    // tail, deduplicating the seal-crash window by sequence.  Sinks are
    // not attached yet, so these inserts do not loop back into us.
    shards_.clear();
    shards_.reserve(cluster.shard_count());
    for (std::size_t s = 0; s < cluster.shard_count(); ++s) {
      auto shard = std::make_unique<Shard>();
      shard->store = this;
      shard->index = s;
      shard->wal_path =
          (fs::path(config_.dir) / wal_file_name(s)).string();
      shards_.push_back(std::move(shard));
    }
    std::int64_t total_segments = 0;
    for (auto& shard_ptr : shards_) {
      Shard& sh = *shard_ptr;
      std::vector<SegmentMeta> shard_segs;
      for (SegmentMeta& meta : live) {
        if (meta.shard == sh.index) shard_segs.push_back(meta);
      }
      std::sort(shard_segs.begin(), shard_segs.end(),
                [](const SegmentMeta& a, const SegmentMeta& b) {
                  return a.first_seq < b.first_seq;
                });
      std::uint64_t seg_high = 0;
      std::vector<SegmentMeta> loaded;
      for (SegmentMeta& meta : shard_segs) {
        std::vector<dsos::Object> rows;
        if (!read_segment_rows(meta, &rows)) {
          fs::rename(meta.path, meta.path + ".quarantined");
          ++recovery_.quarantined_segments;
          continue;  // its rows were acked… from a file that lied about
                     // its checksum; quarantine keeps the evidence.
        }
        for (const dsos::SchemaPtr& schema : meta.schemas) {
          cluster.register_schema(schema);
        }
        for (dsos::Object& row : rows) {
          cluster.insert_at(sh.index, std::move(row));
        }
        seg_high = std::max(seg_high, meta.last_seq);
        recovery_.rows_from_segments += meta.row_count;
        ++recovery_.segments_loaded;
        loaded.push_back(std::move(meta));
      }

      WalReplay replay;
      if (!replay_wal(sh.wal_path, &replay)) {
        throw std::runtime_error("store: cannot replay WAL '" +
                                 sh.wal_path + "'");
      }
      for (const dsos::SchemaPtr& schema : replay.schemas) {
        cluster.register_schema(schema);
      }
      recovery_.wal_frames += replay.frames;
      recovery_.torn_wal_bytes += replay.torn_bytes;
      if (replay.torn_bytes != 0) ++recovery_.torn_tails;
      dsos::Container& container = cluster.shard(sh.index).container();
      std::vector<const dsos::Object*> unsealed;
      for (std::size_t i = 0; i < replay.rows.size(); ++i) {
        const std::uint64_t seq = replay.first_seq + i;
        if (seq <= seg_high) {
          ++recovery_.wal_rows_skipped;  // sealed before the crash
          continue;
        }
        unsealed.push_back(
            &container.object(container.insert(std::move(replay.rows[i]))));
        ++recovery_.rows_from_wal;
      }
      const std::uint64_t high =
          std::max(seg_high, replay.frames != 0 ? replay.last_seq : 0);
      recovery_.high_seq[sh.index] = high;
      total_segments += static_cast<std::int64_t>(loaded.size());

      const util::LockGuard shard_lock(sh.m);
      sh.segments = std::move(loaded);
      sh.next_seq = high;
      sh.durable = high;
      sh.unsealed = std::move(unsealed);
      sh.unsealed_first = sh.unsealed.empty() ? 0 : seg_high + 1;
      for (const dsos::SchemaPtr& schema : replay.schemas) {
        // Still described in the (truncated-to-valid) log file.
        sh.wal_schemas.insert(schema->name());
      }
      if (!sh.wal.open(sh.wal_path)) {
        throw std::runtime_error("store: cannot open WAL '" + sh.wal_path +
                                 "' for appending");
      }
    }
    live_segments_.store(total_segments, std::memory_order_relaxed);

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
      o.recovered_rows.add(recovery_.rows_from_segments +
                           recovery_.rows_from_wal);
      o.torn_tails.add(recovery_.torn_tails);
      o.quarantined.add(recovery_.quarantined_segments);
      o.segments_live.set(total_segments);
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
    shard_ptr->unsealed.clear();
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

void Store::seal_all() {
  require_open("seal_all");
  if (crashed()) return;
  for (auto& shard_ptr : shards_) {
    const util::LockGuard shard_lock(shard_ptr->m);
    shard_ptr->commit_locked();
    shard_ptr->seal_locked();
  }
}

std::uint64_t Store::durable_seq(std::size_t shard) const {
  if (shard >= shards_.size()) return 0;
  const util::LockGuard shard_lock(shards_[shard]->m);
  return shards_[shard]->durable;
}

std::string Store::status_json() const {
  json::Writer w;
  w.begin_object();
  w.member("mode", store_mode_name(config_.mode));
  w.member("dir", config_.dir);
  w.member("open", is_open());
  w.member("crashed", crashed());
  w.member("segments_live",
           static_cast<std::int64_t>(
               live_segments_.load(std::memory_order_relaxed)));
  w.key("recovery");
  w.begin_object();
  w.member("segments_loaded", recovery_.segments_loaded);
  w.member("rows_from_segments", recovery_.rows_from_segments);
  w.member("rows_from_wal", recovery_.rows_from_wal);
  w.member("wal_rows_skipped", recovery_.wal_rows_skipped);
  w.member("torn_tails", recovery_.torn_tails);
  w.member("quarantined_segments", recovery_.quarantined_segments);
  w.member("replaced_dropped", recovery_.replaced_dropped);
  w.end_object();
  w.key("shards");
  w.begin_array();
  for (const auto& shard_ptr : shards_) {
    const util::LockGuard shard_lock(shard_ptr->m);
    w.begin_object();
    w.member("shard", static_cast<std::uint64_t>(shard_ptr->index));
    w.member("next_seq", shard_ptr->next_seq);
    w.member("durable_seq", shard_ptr->durable);
    w.member("pending_rows",
             static_cast<std::uint64_t>(shard_ptr->pending.size()));
    w.member("unsealed_rows",
             static_cast<std::uint64_t>(shard_ptr->unsealed.size()));
    w.member("wal_bytes", static_cast<std::uint64_t>(shard_ptr->wal.bytes()));
    w.member("wal_commits", shard_ptr->wal_commit_count);
    w.member("seals", shard_ptr->seal_count);
    w.key("segments");
    w.begin_array();
    for (const SegmentMeta& meta : shard_ptr->segments) {
      w.begin_object();
      w.member("id", meta.id);
      w.member("rows", meta.row_count);
      w.member("bytes", meta.file_bytes);
      w.member("first_seq", meta.first_seq);
      w.member("last_seq", meta.last_seq);
      w.member("min_time", meta.min_time);
      w.member("max_time", meta.max_time);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace dlc::store
