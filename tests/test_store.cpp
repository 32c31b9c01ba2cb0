// Tests for the durable store: object-block codec round trips, WAL
// replay with torn tails, the open/close guard rails, and FaultPlan-driven
// crash-recovery campaigns asserting zero acknowledged-event loss with
// byte-identical query results.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dsos/cluster.hpp"
#include "dsos/ingest.hpp"
#include "dsos/schema.hpp"
#include "heap_in_use.hpp"
#include "relia/fault.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "store/wal.hpp"
#include "wire/objblock.hpp"
#include "wire/varint.hpp"

namespace dlc::store {
namespace {

namespace fsys = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fsys::temp_directory_path() /
             ("dlc_store_" + tag + "_" + std::to_string(counter_++)))
                .string();
    fsys::remove_all(path_);
    fsys::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fsys::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string sub(const std::string& name) const {
    return (fsys::path(path_) / name).string();
  }

 private:
  static std::atomic<int> counter_;
  std::string path_;
};

std::atomic<int> TempDir::counter_{0};

dsos::SchemaPtr test_schema() {
  return dsos::SchemaBuilder("darshan_data")
      .attr("job_id", dsos::AttrType::kUint64)
      .attr("rank", dsos::AttrType::kInt64)
      .attr("timestamp", dsos::AttrType::kTimestamp)
      .attr("bytes", dsos::AttrType::kUint64)
      .attr("op", dsos::AttrType::kString)
      .index("job_rank_time", {"job_id", "rank", "timestamp"})
      .build();
}

dsos::Object row(const dsos::SchemaPtr& s, std::uint64_t job,
                 std::int64_t rank, double t, std::uint64_t bytes) {
  return dsos::make_object(
      s, {job, rank, t, bytes, std::string(bytes % 2 ? "write" : "read")});
}

/// Deterministic event stream: `n` rows across `ranks` ranks of one job.
std::vector<dsos::Object> make_events(const dsos::SchemaPtr& s,
                                      std::size_t n, std::uint64_t job = 1,
                                      std::int64_t ranks = 4,
                                      double t0 = 100.0) {
  std::vector<dsos::Object> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back(row(s, job, static_cast<std::int64_t>(i) % ranks,
                         t0 + static_cast<double>(i), 64 + i));
  }
  return events;
}

dsos::ClusterConfig cluster_config(std::size_t shards) {
  dsos::ClusterConfig cfg;
  cfg.shard_count = shards;
  cfg.parallel_query = false;  // deterministic, cheap for tests
  return cfg;
}

/// Canonical rendering of every row in global index order — the
/// byte-identical-recovery oracle.
std::string fingerprint(const dsos::DsosCluster& db) {
  std::string out;
  for (const dsos::Object* obj :
       db.query("darshan_data", "job_rank_time")) {
    out += std::to_string(obj->as_uint("job_id")) + "/";
    out += std::to_string(obj->as_int("rank")) + "/";
    out += std::to_string(obj->as_double("timestamp")) + "/";
    out += std::to_string(obj->as_uint("bytes")) + "/";
    out += obj->as_string("op") + ";";
  }
  return out;
}

/// Fingerprint of an uninterrupted (store-less) run over `events`.
std::string baseline_fingerprint(const dsos::SchemaPtr& s,
                                 const std::vector<dsos::Object>& events,
                                 std::size_t shards) {
  dsos::DsosCluster db(cluster_config(shards));
  db.register_schema(s);
  for (const dsos::Object& e : events) db.insert(e);
  return fingerprint(db);
}

// ------------------------------------------------------------ objblock ----

TEST(ObjBlock, RoundTripsRowsAcrossSchemas) {
  const auto s = test_schema();
  std::vector<dsos::Object> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(row(s, 7, i % 3, 100.0 + i, 1000 + i));
  }
  std::vector<const dsos::Object*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);
  const std::string block = wire::encode_object_block(ptrs);

  const wire::SchemaResolver resolve =
      [&s](std::string_view name) -> dsos::SchemaPtr {
    return name == s->name() ? s : nullptr;
  };
  std::vector<dsos::Object> decoded;
  ASSERT_TRUE(wire::decode_object_block(block, resolve, &decoded));
  ASSERT_EQ(decoded.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(decoded[i].as_uint("job_id"), rows[i].as_uint("job_id"));
    EXPECT_EQ(decoded[i].as_int("rank"), rows[i].as_int("rank"));
    EXPECT_EQ(decoded[i].as_double("timestamp"),
              rows[i].as_double("timestamp"));
    EXPECT_EQ(decoded[i].as_string("op"), rows[i].as_string("op"));
  }
}

TEST(ObjBlock, SchemaDefRoundTripsIndices) {
  const auto s = test_schema();
  std::string buf;
  wire::put_schema_def(buf, *s);
  wire::Reader r(buf);
  const dsos::SchemaPtr back = wire::get_schema_def(r);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back->name(), s->name());
  ASSERT_EQ(back->attrs().size(), s->attrs().size());
  for (std::size_t i = 0; i < s->attrs().size(); ++i) {
    EXPECT_EQ(back->attrs()[i].name, s->attrs()[i].name);
    EXPECT_EQ(back->attrs()[i].type, s->attrs()[i].type);
  }
  ASSERT_EQ(back->indices().size(), 1u);
  EXPECT_EQ(back->indices()[0].name, "job_rank_time");
  EXPECT_EQ(back->indices()[0].attr_ids, s->indices()[0].attr_ids);
}

// ------------------------------------------------------------ WAL ---------

TEST(Wal, ReplayOfMissingFileIsEmptyLog) {
  const TempDir dir("wal_missing");
  WalReplay rep;
  EXPECT_TRUE(replay_wal(dir.sub("wal-0.log"), &rep));
  EXPECT_EQ(rep.frames, 0u);
  EXPECT_TRUE(rep.rows.empty());
  EXPECT_EQ(rep.torn_bytes, 0u);
}

TEST(Wal, GroupCommitRoundTrip) {
  const TempDir dir("wal_roundtrip");
  const auto s = test_schema();
  const auto rows = make_events(s, 6);
  std::vector<const dsos::Object*> a{&rows[0], &rows[1], &rows[2]};
  std::vector<const dsos::Object*> b{&rows[3], &rows[4], &rows[5]};

  WalWriter w;
  ASSERT_TRUE(w.open(dir.sub("wal-0.log")));
  ASSERT_TRUE(w.append_schema(*s));
  ASSERT_TRUE(w.append_group(1, a));
  ASSERT_TRUE(w.append_group(4, b));
  w.close();

  WalReplay rep;
  ASSERT_TRUE(replay_wal(dir.sub("wal-0.log"), &rep));
  EXPECT_EQ(rep.frames, 2u);
  EXPECT_EQ(rep.first_seq, 1u);
  EXPECT_EQ(rep.last_seq, 6u);
  ASSERT_EQ(rep.rows.size(), 6u);
  ASSERT_EQ(rep.schemas.size(), 1u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(rep.rows[i].as_uint("bytes"), rows[i].as_uint("bytes"));
  }
}

TEST(Wal, TornFinalRecordIsTruncatedAndAppendable) {
  const TempDir dir("wal_torn");
  const auto s = test_schema();
  const auto rows = make_events(s, 6);
  std::vector<const dsos::Object*> a{&rows[0], &rows[1], &rows[2]};
  std::vector<const dsos::Object*> b{&rows[3], &rows[4], &rows[5]};
  const std::string path = dir.sub("wal-0.log");

  WalWriter w;
  ASSERT_TRUE(w.open(path));
  ASSERT_TRUE(w.append_schema(*s));
  ASSERT_TRUE(w.append_group(1, a));
  // Process dies 13 bytes into the second group's framed record.
  EXPECT_FALSE(w.append_group(4, b, 13));
  w.close();

  WalReplay rep;
  ASSERT_TRUE(replay_wal(path, &rep));
  EXPECT_EQ(rep.frames, 1u);
  EXPECT_EQ(rep.rows.size(), 3u);
  EXPECT_GT(rep.torn_bytes, 0u);  // the torn group vanished entirely

  // The truncated log accepts appends and replays cleanly.
  WalWriter w2;
  ASSERT_TRUE(w2.open(path));
  ASSERT_TRUE(w2.append_group(4, b));
  w2.close();
  WalReplay rep2;
  ASSERT_TRUE(replay_wal(path, &rep2));
  EXPECT_EQ(rep2.frames, 2u);
  EXPECT_EQ(rep2.rows.size(), 6u);
  EXPECT_EQ(rep2.torn_bytes, 0u);
}

TEST(Wal, BitFlippedFrameStopsReplayAtLastGoodFrame) {
  const TempDir dir("wal_bitflip");
  const auto s = test_schema();
  const auto rows = make_events(s, 4);
  std::vector<const dsos::Object*> a{&rows[0], &rows[1]};
  std::vector<const dsos::Object*> b{&rows[2], &rows[3]};
  const std::string path = dir.sub("wal-0.log");
  {
    WalWriter w;
    ASSERT_TRUE(w.open(path));
    ASSERT_TRUE(w.append_schema(*s));
    ASSERT_TRUE(w.append_group(1, a));
    ASSERT_TRUE(w.append_group(3, b));
  }
  // Flip one byte inside the last frame's payload.
  const auto size = fsys::file_size(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size) - 3);
    char c = 0;
    f.read(&c, 1);
    f.seekp(static_cast<std::streamoff>(size) - 3);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }
  WalReplay rep;
  ASSERT_TRUE(replay_wal(path, &rep));
  EXPECT_EQ(rep.frames, 1u);
  EXPECT_EQ(rep.rows.size(), 2u);
  EXPECT_GT(rep.torn_bytes, 0u);
}

// ------------------------------------------------------------ store -------

StoreConfig store_config(const std::string& dir, StoreMode mode,
                         std::size_t group = 8) {
  StoreConfig cfg;
  cfg.mode = mode;
  cfg.dir = dir;
  cfg.wal_group_records = group;
  return cfg;
}

TEST(Store, MemoryModeAttachesNothing) {
  dsos::DsosCluster db(cluster_config(2));
  const auto s = test_schema();
  db.register_schema(s);
  Store st{StoreConfig{}};
  st.open(db);
  for (const auto& e : make_events(s, 10)) db.insert(e);
  EXPECT_EQ(db.shard(0).container().commit_sink(), nullptr);
  EXPECT_EQ(st.durable_seq(0), 0u);
  st.close();
}

TEST(Store, WalModeSurvivesCleanReopenByteIdentical) {
  const TempDir dir("wal_reopen");
  const auto s = test_schema();
  const auto events = make_events(s, 100);
  const std::string want = baseline_fingerprint(s, events, 2);

  const StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);
  {
    dsos::DsosCluster db(cluster_config(2));
    db.register_schema(s);
    Store st(cfg);
    st.open(db);
    for (const auto& e : events) db.insert(e);
    st.flush_all();
    EXPECT_EQ(fingerprint(db), want);
    st.close();
  }
  {
    dsos::DsosCluster db(cluster_config(2));
    Store st(cfg);
    const RecoveryReport rep = st.open(db);
    EXPECT_EQ(rep.rows_from_wal, 100u);
    EXPECT_EQ(rep.torn_tails, 0u);
    EXPECT_EQ(fingerprint(db), want);
    st.close();
  }
}

TEST(Store, EmptyWalRecoversToEmptyCluster) {
  const TempDir dir("wal_empty");
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);
  {
    dsos::DsosCluster db(cluster_config(2));
    Store st(cfg);
    st.open(db);
    st.close();  // creates empty WAL files, writes nothing
  }
  dsos::DsosCluster db(cluster_config(2));
  Store st(cfg);
  const RecoveryReport rep = st.open(db);
  EXPECT_EQ(rep.rows_from_wal, 0u);
  EXPECT_EQ(rep.torn_tails, 0u);
  EXPECT_EQ(db.total_objects(), 0u);
  st.close();
}

TEST(Store, AppendsAfterRecoveryAndReplaysEverySession) {
  // Three sessions on one directory: each reopen must continue the WAL's
  // sequence where recovery left it, or the next replay stops at the
  // first non-contiguous frame and silently drops every later row.
  const TempDir dir("sessions");
  const auto s = test_schema();
  const auto events = make_events(s, 120);
  const std::string want = baseline_fingerprint(s, events, 2);
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);
  for (std::size_t session = 0; session < 2; ++session) {
    dsos::DsosCluster db(cluster_config(2));
    db.register_schema(s);
    Store st(cfg);
    const RecoveryReport rep = st.open(db);
    EXPECT_EQ(rep.rows_from_wal, 60 * session);
    for (std::size_t i = 60 * session; i < 60 * (session + 1); ++i) {
      db.insert(events[i]);
    }
    st.close();
  }
  dsos::DsosCluster db(cluster_config(2));
  Store st(cfg);
  const RecoveryReport rep = st.open(db);
  EXPECT_EQ(rep.rows_from_wal, 120u);
  EXPECT_EQ(rep.torn_tails, 0u);
  EXPECT_EQ(rep.high_seq[0] + rep.high_seq[1], 120u);
  EXPECT_EQ(fingerprint(db), want);
  st.close();
}

TEST(Store, TieredStoreHoldsNoRowCopies) {
  // A tiered store refers to a container row only from its insert until
  // the commit that writes it, so after flush_all() it holds no per-row
  // state: over the same inserts with no store attached it may add a
  // bounded group-commit buffer and a WAL stream, but not a byte a row.
  constexpr std::size_t kRows = 50000;
  const TempDir dir("heap");
  const auto s = test_schema();
  const auto events = make_events(s, kRows);
  const auto heap_growth = [&](StoreMode mode) {
    dsos::DsosCluster db(cluster_config(2));
    db.register_schema(s);
    Store st(store_config(dir.path(), mode, 64));
    st.open(db);
    const std::size_t before = heap_in_use();
    for (const auto& e : events) db.insert(e);
    st.flush_all();
    const std::size_t after = heap_in_use();
    st.close();
    return static_cast<double>(after) - static_cast<double>(before);
  };
  const double bare = heap_growth(StoreMode::kMemory);
  if (bare < 64.0 * kRows) {
    GTEST_SKIP() << "the allocator does not report heap use (mallinfo2)";
  }
  const double stored = heap_growth(StoreMode::kTiered);
  EXPECT_LE(stored - bare, 1.0 * kRows)
      << "bare " << bare << " B, with the store " << stored << " B";
}

// ------------------------------------------------- guard rails ------------

TEST(Store, OpenGuardsFailLoudly) {
  const TempDir dir("guards");
  const auto s = test_schema();
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);

  dsos::DsosCluster db(cluster_config(1));
  db.register_schema(s);
  Store st(cfg);
  st.open(db);
  // Double open of the same instance.
  EXPECT_THROW(st.open(db), std::logic_error);
  // Second store on the same directory while the first is live.
  {
    dsos::DsosCluster db2(cluster_config(1));
    Store st2(cfg);
    EXPECT_THROW(st2.open(db2), std::logic_error);
  }
  // Second store on a different directory but the same (already
  // attached) cluster: the container rejects the double sink.
  {
    const TempDir other("guards_other");
    Store st3(store_config(other.path(), StoreMode::kTiered));
    EXPECT_THROW(st3.open(db), std::logic_error);
  }
  st.close();
  st.close();  // idempotent

  // After close the directory is claimable again.
  dsos::DsosCluster db4(cluster_config(1));
  Store st4(cfg);
  EXPECT_NO_THROW(st4.open(db4));
  st4.close();

  // Missing directory with create_dir off.
  StoreConfig missing = store_config(dir.sub("nope"), StoreMode::kTiered);
  missing.create_dir = false;
  Store st5(missing);
  dsos::DsosCluster db5(cluster_config(1));
  EXPECT_THROW(st5.open(db5), std::runtime_error);

  // Operations on a store that is not open.
  EXPECT_THROW(st5.flush_all(), std::logic_error);
}

TEST(Store, OpenRefusesSegmentFromAnOlderBuild) {
  // An older build sealed WAL rows into seg-*.seg files and emptied the
  // WAL behind them; opening without those rows would drop acked data.
  const TempDir dir("old_segment");
  const auto s = test_schema();
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);
  {
    dsos::DsosCluster db(cluster_config(2));
    db.register_schema(s);
    Store st(cfg);
    st.open(db);
    for (const auto& e : make_events(s, 20)) db.insert(e);
    st.close();
  }
  const std::string seg = dir.sub("seg-0-00000001.seg");
  std::ofstream(seg, std::ios::binary) << "DSG1";

  for (int attempt = 0; attempt < 2; ++attempt) {
    dsos::DsosCluster db(cluster_config(2));
    Store st(cfg);
    try {
      st.open(db);
      ADD_FAILURE() << "open accepted a directory holding " << seg;
    } catch (const std::logic_error& e) {
      ADD_FAILURE() << "the directory stayed claimed: " << e.what();
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("seg-0-00000001.seg"),
                std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(st.is_open());
    EXPECT_EQ(db.total_objects(), 0u);
    for (std::size_t sh = 0; sh < db.shard_count(); ++sh) {
      EXPECT_EQ(db.shard(sh).container().commit_sink(), nullptr);
    }
  }
  EXPECT_TRUE(fsys::exists(seg));  // left for the operator, not renamed

  // Once the operator moves the segment away the directory opens.
  fsys::remove(seg);
  dsos::DsosCluster db(cluster_config(2));
  Store st(cfg);
  EXPECT_EQ(st.open(db).rows_from_wal, 20u);
  st.close();
}

// ------------------------------------------------------------- persist ----
// Whole-database round trips: a reopened store answers queries as the
// database it was written from did.

TEST(Persist, ContainerRoundTrip) {
  const TempDir dir("persist_container");
  const auto s = test_schema();
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);
  dsos::DsosCluster original(cluster_config(1));
  original.register_schema(s);
  {
    Store st(cfg);
    st.open(original);
    for (std::uint64_t i = 0; i < 200; ++i) {
      original.insert(row(s, 1 + i / 50, static_cast<std::int64_t>(i * 5 % 8),
                          100.0 + static_cast<double>(i * 37 % 200) + 0.25,
                          64 + i));
    }
    st.close();
  }
  dsos::DsosCluster loaded(cluster_config(1));
  Store st(cfg);
  st.open(loaded);
  EXPECT_EQ(loaded.total_objects(), original.total_objects());
  // A filtered query over the indices rebuilt on reopen agrees row for
  // row with the container the rows were written from.
  const dsos::Filter filter{{"job_id", std::uint64_t{2}},
                            {"op", std::string("read")}};
  const auto a = original.query("darshan_data", "job_rank_time", filter);
  const auto b = loaded.query("darshan_data", "job_rank_time", filter);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->values, b[i]->values);
  }
  st.close();
}

TEST(Persist, RejectsCorruptStreams) {
  const auto s = test_schema();
  // A WAL holding garbage yields no rows: its tail is torn at byte 0.
  {
    const TempDir dir("persist_garbage");
    std::ofstream(dir.sub(wal_file_name(0)), std::ios::binary)
        << "garbage data here";
    dsos::DsosCluster db(cluster_config(1));
    Store st(store_config(dir.path(), StoreMode::kTiered));
    const RecoveryReport rep = st.open(db);
    EXPECT_EQ(rep.torn_tails, 1u);
    EXPECT_EQ(db.total_objects(), 0u);
    st.close();
  }
  // A WAL missing its last bytes loses only its last group commit.
  const TempDir dir("persist_truncated");
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);
  {
    dsos::DsosCluster db(cluster_config(1));
    db.register_schema(s);
    Store st(cfg);
    st.open(db);
    for (const auto& e : make_events(s, 20)) db.insert(e);  // 8 + 8 + 4
    st.close();
  }
  const std::string wal = dir.sub(wal_file_name(0));
  fsys::resize_file(wal, fsys::file_size(wal) - 4);
  dsos::DsosCluster db(cluster_config(1));
  Store st(cfg);
  const RecoveryReport rep = st.open(db);
  EXPECT_EQ(rep.torn_tails, 1u);
  EXPECT_EQ(rep.rows_from_wal, 16u);
  EXPECT_EQ(db.total_objects(), 16u);
  st.close();
}

TEST(Persist, ClusterRoundTripOnDisk) {
  const TempDir dir("persist_cluster");
  const auto s = test_schema();
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);
  dsos::DsosCluster cluster(cluster_config(3));
  cluster.register_schema(s);
  {
    Store st(cfg);
    st.open(cluster);
    for (std::uint64_t i = 0; i < 100; ++i) {
      cluster.insert(row(s, 1, static_cast<std::int64_t>(i * 7 % 10),
                         50.0 - static_cast<double>(i) * 0.5, 64 + i));
    }
    st.close();
  }
  dsos::DsosCluster loaded(cluster_config(3));
  Store st(cfg);
  const RecoveryReport rep = st.open(loaded);
  EXPECT_EQ(rep.rows_from_wal, 100u);
  EXPECT_EQ(loaded.total_objects(), 100u);
  // Each row comes back on the shard it was written to.
  for (std::size_t shard = 0; shard < 3; ++shard) {
    EXPECT_EQ(loaded.shard(shard).container().size(),
              cluster.shard(shard).container().size());
  }
  EXPECT_EQ(fingerprint(loaded), fingerprint(cluster));
  st.close();
}

TEST(Persist, LoadClusterFailsOnMissingDir) {
  const TempDir dir("persist_missing");
  StoreConfig cfg = store_config(dir.sub("absent"), StoreMode::kTiered);
  cfg.create_dir = false;
  dsos::DsosCluster db(cluster_config(2));
  Store st(cfg);
  EXPECT_THROW(st.open(db), std::runtime_error);
  EXPECT_FALSE(st.is_open());
  EXPECT_FALSE(fsys::exists(dir.sub("absent")));
}

// ------------------------------------------------- crash campaigns --------

/// Drives `events` into a fresh cluster+store on `dir` until an armed
/// crash fires (or the stream ends), then reopens with a new
/// cluster+store, resubmits everything past the recovered frontier, and
/// checks the zero-acked-loss and byte-identical bars.
void run_crash_campaign(const std::string& dir, StoreConfig cfg,
                        const std::string& plan_text,
                        std::size_t shards = 2, std::size_t n_events = 200) {
  const auto s = test_schema();
  const auto events = make_events(s, n_events);
  const std::string want = baseline_fingerprint(s, events, shards);
  cfg.dir = dir;

  const relia::FaultPlan plan = relia::parse_fault_plan(plan_text);
  ASSERT_TRUE(plan.ok()) << plan_text;

  std::vector<std::uint64_t> acked(shards, 0);
  {
    dsos::DsosCluster db(cluster_config(shards));
    db.register_schema(s);
    Store st(cfg);
    st.open(db);
    ASSERT_GT(st.faults().arm_from_plan(plan), 0u);
    bool crashed = false;
    try {
      for (const auto& e : events) {
        db.insert(e);
      }
      st.flush_all();
    } catch (const StoreCrash&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "plan never fired: " << plan_text;
    ASSERT_TRUE(st.crashed());
    for (std::size_t sh = 0; sh < shards; ++sh) {
      acked[sh] = st.durable_seq(sh);
    }
    // The dead instance stays inert: inserts are dropped, never acked.
    db.insert(events[0]);
    for (std::size_t sh = 0; sh < shards; ++sh) {
      EXPECT_EQ(st.durable_seq(sh), acked[sh]);
    }
  }

  // Recovery: fresh store + fresh cluster on the same directory.
  dsos::DsosCluster db(cluster_config(shards));
  db.register_schema(s);
  Store st(cfg);
  const RecoveryReport rep = st.open(db);
  for (std::size_t sh = 0; sh < shards; ++sh) {
    // Zero acknowledged-event loss: everything acked was recovered.
    EXPECT_GE(rep.high_seq[sh], acked[sh]) << "shard " << sh;
  }
  // At-least-once driver: resubmit everything past the frontier, in the
  // original per-shard order.
  std::vector<std::uint64_t> pos(shards, 0);
  for (const auto& e : events) {
    dsos::Object copy = e;
    const std::size_t sh = db.route(copy);
    if (++pos[sh] <= rep.high_seq[sh]) continue;  // already recovered
    db.insert_at(sh, std::move(copy));
  }
  st.flush_all();
  EXPECT_EQ(fingerprint(db), want) << plan_text;
  st.close();
}

TEST(CrashCampaign, TornWalCommitLosesNoAckedEvents) {
  const TempDir dir("crash_commit");
  run_crash_campaign(dir.path(), store_config("", StoreMode::kTiered),
                     "storecrash commit after 3\n");
}

TEST(CrashCampaign, TornWalCommitTieredMode) {
  const TempDir dir("crash_commit_tiered");
  run_crash_campaign(dir.path(), store_config("", StoreMode::kTiered),
                     "storecrash commit after 5\n");
}

// ------------------------------------------------- fault plan / injector --

TEST(FaultInjector, PlanRoundTripAndOccurrenceCounting) {
  const relia::FaultPlan plan =
      relia::parse_fault_plan("# store campaign\nstorecrash commit after 2\n");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(relia::to_string(plan.events[0]), "storecrash commit after 2");

  FaultInjector fi;
  EXPECT_EQ(fi.arm_from_plan(plan), 1u);
  EXPECT_FALSE(fi.should_crash(CrashPoint::kWalCommit));  // occurrence 1
  EXPECT_TRUE(fi.should_crash(CrashPoint::kWalCommit));   // occurrence 2 fires
  EXPECT_FALSE(fi.should_crash(CrashPoint::kWalCommit));  // disarmed after
}

TEST(FaultInjector, UnknownPointNamesAreSkipped) {
  const relia::FaultPlan plan =
      relia::parse_fault_plan("storecrash flush after 1\n");
  ASSERT_TRUE(plan.ok());  // lexically valid; point name resolved later
  FaultInjector fi;
  EXPECT_EQ(fi.arm_from_plan(plan), 0u);
}

TEST(FaultInjector, CrashPointNamesRoundTrip) {
  for (std::size_t i = 0; i < kCrashPointCount; ++i) {
    const auto p = static_cast<CrashPoint>(i);
    CrashPoint back{};
    ASSERT_TRUE(crash_point_from_name(crash_point_name(p), back));
    EXPECT_EQ(back, p);
  }
  CrashPoint out{};
  EXPECT_FALSE(crash_point_from_name("nope", out));
}

// ------------------------------------------------- parallel ingest --------

TEST(Store, ParallelIngestExecutorCommitsDurably) {
  const TempDir dir("parallel");
  const auto s = test_schema();
  const auto events = make_events(s, 400);
  const std::string want = baseline_fingerprint(s, events, 4);
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered, 32);
  {
    dsos::DsosCluster db(cluster_config(4));
    db.register_schema(s);
    Store st(cfg);
    st.open(db);
    dsos::IngestConfig icfg;
    icfg.workers = 2;
    dsos::IngestExecutor exec(db, icfg);
    for (const auto& e : events) exec.submit(e);
    exec.drain();  // durability barrier: every shard group-committed
    std::uint64_t durable_total = 0;
    for (std::size_t sh = 0; sh < 4; ++sh) durable_total += st.durable_seq(sh);
    EXPECT_EQ(durable_total, 400u);
    EXPECT_EQ(fingerprint(db), want);
    st.close();
  }
  dsos::DsosCluster db(cluster_config(4));
  Store st(cfg);
  st.open(db);
  EXPECT_EQ(fingerprint(db), want);
  st.close();
}

}  // namespace
}  // namespace dlc::store
