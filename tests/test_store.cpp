// Tests for the durable store: object-block codec round trips, WAL
// replay with torn tails, sealed-segment corruption handling, zone-map
// pruning over persisted headers, retention TTL edges, the open/close
// guard rails, and FaultPlan-driven crash-recovery campaigns asserting
// zero acknowledged-event loss with byte-identical query results.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dsos/cluster.hpp"
#include "dsos/ingest.hpp"
#include "dsos/schema.hpp"
#include "relia/fault.hpp"
#include "store/format.hpp"
#include "store/segment.hpp"
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

// ------------------------------------------------------------ segments ----

TEST(Segment, WriteReadRoundTripWithZones) {
  const TempDir dir("seg_roundtrip");
  const auto s = test_schema();
  const auto rows = make_events(s, 8, /*job=*/3, /*ranks=*/2, /*t0=*/500.0);
  std::vector<const dsos::Object*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);

  SegmentMeta meta;
  meta.path = dir.sub(segment_file_name(0, 1));
  meta.id = 1;
  meta.shard = 0;
  meta.first_seq = 1;
  meta.last_seq = 8;
  meta.created_unix_s = 1234;
  ASSERT_TRUE(write_segment(&meta, ptrs));
  EXPECT_EQ(meta.row_count, 8u);
  EXPECT_EQ(meta.min_time, 500.0);
  EXPECT_EQ(meta.max_time, 507.0);
  EXPECT_FALSE(meta.zones.empty());
  EXPECT_FALSE(fsys::exists(meta.path + ".tmp"));

  const auto back = read_segment_meta(meta.path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, 1u);
  EXPECT_EQ(back->row_count, 8u);
  EXPECT_EQ(back->min_time, 500.0);
  EXPECT_EQ(back->max_time, 507.0);
  EXPECT_EQ(back->zones.size(), meta.zones.size());
  ASSERT_EQ(back->schemas.size(), 1u);
  EXPECT_EQ(back->schemas[0]->name(), "darshan_data");

  std::vector<dsos::Object> decoded;
  ASSERT_TRUE(read_segment_rows(*back, &decoded));
  ASSERT_EQ(decoded.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(decoded[i].as_double("timestamp"),
              rows[i].as_double("timestamp"));
  }
}

TEST(Segment, TruncatedFileFailsHeaderValidation) {
  const TempDir dir("seg_trunc");
  const auto s = test_schema();
  const auto rows = make_events(s, 4);
  std::vector<const dsos::Object*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);
  SegmentMeta meta;
  meta.path = dir.sub(segment_file_name(0, 1));
  meta.id = 1;
  meta.first_seq = 1;
  meta.last_seq = 4;
  ASSERT_TRUE(write_segment(&meta, ptrs));
  fsys::resize_file(meta.path, fsys::file_size(meta.path) - 10);
  EXPECT_FALSE(read_segment_meta(meta.path).has_value());
}

TEST(Segment, BitFlippedDataBlockFailsRowReadNotHeader) {
  const TempDir dir("seg_bitflip");
  const auto s = test_schema();
  const auto rows = make_events(s, 4);
  std::vector<const dsos::Object*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);
  SegmentMeta meta;
  meta.path = dir.sub(segment_file_name(0, 1));
  meta.id = 1;
  meta.first_seq = 1;
  meta.last_seq = 4;
  ASSERT_TRUE(write_segment(&meta, ptrs));
  const auto size = fsys::file_size(meta.path);
  {
    std::fstream f(meta.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size) - 4);
    char c = 0;
    f.read(&c, 1);
    f.seekp(static_cast<std::streamoff>(size) - 4);
    c = static_cast<char>(c ^ 0x01);
    f.write(&c, 1);
  }
  const auto back = read_segment_meta(meta.path);
  ASSERT_TRUE(back.has_value());  // header CRC untouched
  std::vector<dsos::Object> decoded;
  EXPECT_FALSE(read_segment_rows(*back, &decoded));  // data CRC catches it
}

TEST(Segment, ZoneMapsPruneDisjointFilters) {
  const TempDir dir("seg_zones");
  const auto s = test_schema();
  const auto rows = make_events(s, 8, /*job=*/3, /*ranks=*/2, /*t0=*/500.0);
  std::vector<const dsos::Object*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);
  SegmentMeta meta;
  meta.path = dir.sub(segment_file_name(0, 1));
  meta.id = 1;
  meta.first_seq = 1;
  meta.last_seq = 8;
  ASSERT_TRUE(write_segment(&meta, ptrs));

  using dsos::Cmp;
  // Disjoint job id: zone [3,3] cannot contain 4.
  EXPECT_FALSE(segment_can_match(
      meta, "darshan_data",
      {{"job_id", Cmp::kEq, dsos::Value{std::uint64_t{4}}}}));
  // Disjoint time range: max_time is 507.
  EXPECT_FALSE(segment_can_match(
      meta, "darshan_data", {{"timestamp", Cmp::kGt, dsos::Value{1000.0}}}));
  // Overlapping filter cannot be ruled out.
  EXPECT_TRUE(segment_can_match(
      meta, "darshan_data",
      {{"job_id", Cmp::kEq, dsos::Value{std::uint64_t{3}}}}));
  // Unknown schema: nothing in this segment can match.
  EXPECT_FALSE(segment_can_match(meta, "other_schema", {}));
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

  const StoreConfig cfg = store_config(dir.path(), StoreMode::kWal);
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
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kWal);
  {
    dsos::DsosCluster db(cluster_config(2));
    Store st(cfg);
    st.open(db);
    st.close();  // creates empty WAL files, writes nothing
  }
  dsos::DsosCluster db(cluster_config(2));
  Store st(cfg);
  const RecoveryReport rep = st.open(db);
  EXPECT_EQ(rep.rows_from_wal + rep.rows_from_segments, 0u);
  EXPECT_EQ(rep.torn_tails, 0u);
  EXPECT_EQ(db.total_objects(), 0u);
  st.close();
}

TEST(Store, TieredModeSealsAndReopensByteIdentical) {
  const TempDir dir("tiered_reopen");
  const auto s = test_schema();
  const auto events = make_events(s, 120);
  const std::string want = baseline_fingerprint(s, events, 2);

  StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);
  cfg.seal_bytes = 256;  // seal every few commits
  {
    dsos::DsosCluster db(cluster_config(2));
    db.register_schema(s);
    Store st(cfg);
    st.open(db);
    for (const auto& e : events) db.insert(e);
    st.flush_all();
    st.seal_all();
    st.close();
  }
  dsos::DsosCluster db(cluster_config(2));
  Store st(cfg);
  const RecoveryReport rep = st.open(db);
  EXPECT_GT(rep.segments_loaded, 0u);
  EXPECT_EQ(rep.rows_from_segments + rep.rows_from_wal, 120u);
  EXPECT_EQ(fingerprint(db), want);
  st.close();
}

TEST(Store, CompactionMergesSmallSegmentsPreservingRows) {
  const TempDir dir("compact");
  const auto s = test_schema();
  const auto events = make_events(s, 90, /*job=*/1, /*ranks=*/1);
  const std::string want = baseline_fingerprint(s, events, 1);

  StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);
  cfg.compact_min_bytes = 1 << 20;  // everything is a candidate
  {
    dsos::DsosCluster db(cluster_config(1));
    db.register_schema(s);
    Store st(cfg);
    st.open(db);
    // Three seals -> three small segments.
    std::size_t i = 0;
    for (const auto& e : events) {
      db.insert(e);
      if (++i % 30 == 0) {
        st.flush_all();
        st.seal_all();
      }
    }
    const std::size_t merged = st.compact_once();
    EXPECT_EQ(merged, 3u);
    EXPECT_EQ(st.compact_once(), 0u);  // nothing left to merge
    st.close();
  }
  dsos::DsosCluster db(cluster_config(1));
  Store st(cfg);
  const RecoveryReport rep = st.open(db);
  EXPECT_EQ(rep.segments_loaded, 1u);  // one merged segment
  EXPECT_EQ(rep.rows_from_segments, 90u);
  EXPECT_EQ(fingerprint(db), want);
  st.close();
}

TEST(Store, RetentionExpiresExactlyAtTtl) {
  const TempDir dir("retention");
  const auto s = test_schema();
  // All rows at timestamp 100..129 => segment max_time = 129.
  const auto events = make_events(s, 30, /*job=*/1, /*ranks=*/1,
                                  /*t0=*/100.0);
  std::int64_t fake_now = 150;
  StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);
  cfg.retention_s = 50;
  cfg.now_unix_s = [&fake_now] { return fake_now; };

  dsos::DsosCluster db(cluster_config(1));
  db.register_schema(s);
  Store st(cfg);
  st.open(db);
  for (const auto& e : events) db.insert(e);
  st.flush_all();
  st.seal_all();

  fake_now = 178;  // now - max_time = 49 < 50: kept
  EXPECT_EQ(st.apply_retention(), 0u);
  fake_now = 179;  // now - max_time = 50 == ttl: expired
  EXPECT_EQ(st.apply_retention(), 1u);
  EXPECT_EQ(st.apply_retention(), 0u);  // idempotent
  st.close();

  // The expired segment is gone from disk too.
  std::size_t seg_files = 0;
  for (const auto& entry : fsys::directory_iterator(dir.path())) {
    if (entry.path().string().ends_with(".seg")) ++seg_files;
  }
  EXPECT_EQ(seg_files, 0u);
}

TEST(Store, QueryColdPrunesDisjointPartitionsViaPersistedZones) {
  const TempDir dir("query_cold");
  const auto s = test_schema();
  StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);

  dsos::DsosCluster db(cluster_config(1));
  db.register_schema(s);
  Store st(cfg);
  st.open(db);
  // Two disjoint job/time partitions, sealed into separate segments.
  for (const auto& e : make_events(s, 40, /*job=*/1, /*ranks=*/1, 100.0)) {
    db.insert(e);
  }
  st.flush_all();
  st.seal_all();
  for (const auto& e : make_events(s, 40, /*job=*/2, /*ranks=*/1, 5000.0)) {
    db.insert(e);
  }
  st.flush_all();
  st.seal_all();

  using dsos::Cmp;
  Store::ColdQueryStats stats;
  const auto hits = st.query_cold(
      "darshan_data", {{"job_id", Cmp::kEq, dsos::Value{std::uint64_t{2}}}},
      &stats);
  EXPECT_EQ(hits.size(), 40u);
  EXPECT_EQ(stats.segments_total, 2u);
  EXPECT_EQ(stats.pruned, 1u);  // job 1's segment never decoded
  EXPECT_EQ(stats.read, 1u);

  Store::ColdQueryStats none;
  const auto empty = st.query_cold(
      "darshan_data", {{"timestamp", Cmp::kGt, dsos::Value{99999.0}}},
      &none);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(none.pruned, 2u);  // answered entirely from headers
  EXPECT_EQ(none.read, 0u);
  st.close();
}

TEST(Store, StatusJsonReportsModeAndShards) {
  const TempDir dir("status");
  const auto s = test_schema();
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kWal);
  dsos::DsosCluster db(cluster_config(2));
  db.register_schema(s);
  Store st(cfg);
  st.open(db);
  for (const auto& e : make_events(s, 20)) db.insert(e);
  st.flush_all();
  const std::string json = st.status_json();
  EXPECT_NE(json.find("\"mode\":\"wal\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\":["), std::string::npos);
  EXPECT_NE(json.find("\"durable_seq\""), std::string::npos);
  st.close();
}

// ------------------------------------------------- guard rails ------------

TEST(Store, OpenGuardsFailLoudly) {
  const TempDir dir("guards");
  const auto s = test_schema();
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kWal);

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
    Store st3(store_config(other.path(), StoreMode::kWal));
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
  StoreConfig missing = store_config(dir.sub("nope"), StoreMode::kWal);
  missing.create_dir = false;
  Store st5(missing);
  dsos::DsosCluster db5(cluster_config(1));
  EXPECT_THROW(st5.open(db5), std::runtime_error);

  // Operations on a store that is not open.
  EXPECT_THROW(st5.flush_all(), std::logic_error);
  EXPECT_THROW(st5.compact_once(), std::logic_error);
  EXPECT_THROW(st5.query_cold("darshan_data", {}), std::logic_error);
}

// ------------------------------------------------------------- persist ----
// Whole-database round trips: a reopened store answers queries as the
// database it was written from did.

TEST(Persist, ContainerRoundTrip) {
  const TempDir dir("persist_container");
  const auto s = test_schema();
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kWal);
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
  const dsos::Filter filter{{"job_id", dsos::Cmp::kEq, std::uint64_t{2}},
                            {"op", dsos::Cmp::kEq, std::string("read")}};
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
    Store st(store_config(dir.path(), StoreMode::kWal));
    const RecoveryReport rep = st.open(db);
    EXPECT_EQ(rep.torn_tails, 1u);
    EXPECT_EQ(db.total_objects(), 0u);
    st.close();
  }
  // A sealed segment missing its last bytes is quarantined, not loaded.
  const TempDir dir("persist_truncated");
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);
  {
    dsos::DsosCluster db(cluster_config(1));
    db.register_schema(s);
    Store st(cfg);
    st.open(db);
    for (const auto& e : make_events(s, 20)) db.insert(e);
    st.seal_all();
    st.close();
  }
  const std::string seg = dir.sub(segment_file_name(0, 1));
  ASSERT_TRUE(fsys::exists(seg));
  fsys::resize_file(seg, fsys::file_size(seg) - 4);
  dsos::DsosCluster db(cluster_config(1));
  Store st(cfg);
  const RecoveryReport rep = st.open(db);
  EXPECT_EQ(rep.quarantined_segments, 1u);
  EXPECT_EQ(rep.segments_loaded, 0u);
  EXPECT_EQ(db.total_objects(), 0u);
  EXPECT_TRUE(fsys::exists(seg + ".quarantined"));
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
    st.seal_all();
    st.close();
  }
  dsos::DsosCluster loaded(cluster_config(3));
  Store st(cfg);
  const RecoveryReport rep = st.open(loaded);
  EXPECT_EQ(rep.rows_from_segments, 100u);
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
                        std::size_t shards = 2, std::size_t n_events = 200,
                        bool compact_after = false) {
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
      st.seal_all();
      if (compact_after) st.compact_once();
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
    EXPECT_EQ(st.recovered_high_seq(sh), rep.high_seq[sh]);
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
  run_crash_campaign(dir.path(), store_config("", StoreMode::kWal),
                     "storecrash commit after 3\n");
}

TEST(CrashCampaign, TornWalCommitTieredMode) {
  const TempDir dir("crash_commit_tiered");
  StoreConfig cfg = store_config("", StoreMode::kTiered);
  cfg.seal_bytes = 512;
  run_crash_campaign(dir.path(), cfg, "storecrash commit after 5\n");
}

TEST(CrashCampaign, CrashDuringSealLeavesWalAuthoritative) {
  const TempDir dir("crash_seal");
  StoreConfig cfg = store_config("", StoreMode::kTiered);
  cfg.seal_bytes = 512;  // seals happen during ingest
  run_crash_campaign(dir.path(), cfg, "storecrash seal after 2\n");
  // The torn .seg.tmp must be gone after recovery.
  for (const auto& entry : fsys::directory_iterator(dir.path())) {
    EXPECT_FALSE(entry.path().string().ends_with(".seg.tmp"))
        << entry.path();
  }
}

TEST(CrashCampaign, CrashDuringCompactionWriteKeepsInputs) {
  const TempDir dir("crash_compact");
  StoreConfig cfg = store_config("", StoreMode::kTiered);
  cfg.seal_bytes = 512;
  cfg.compact_min_bytes = 1 << 20;
  run_crash_campaign(dir.path(), cfg, "storecrash compact after 1\n",
                     /*shards=*/2, /*n_events=*/200, /*compact_after=*/true);
}

TEST(CrashCampaign, CrashDuringCompactionSwapDropsReplacedInputs) {
  const TempDir dir("crash_swap");
  StoreConfig cfg = store_config("", StoreMode::kTiered);
  cfg.dir = dir.path();
  cfg.seal_bytes = 512;
  cfg.compact_min_bytes = 1 << 20;
  run_crash_campaign(dir.path(), cfg, "storecrash compact_swap after 1\n",
                     /*shards=*/2, /*n_events=*/200, /*compact_after=*/true);
  // Reopen once more just to inspect the recovery report: the swapped
  // output won, its inputs were dropped.
  dsos::DsosCluster db(cluster_config(2));
  Store st(cfg);
  const RecoveryReport rep = st.open(db);
  EXPECT_EQ(rep.replaced_dropped, 0u);  // prior recovery already dropped
  EXPECT_GT(rep.segments_loaded + rep.rows_from_wal, 0u);
  st.close();
}

TEST(CrashCampaign, BitFlippedSegmentIsQuarantinedLoudly) {
  const TempDir dir("crash_bitflip");
  const auto s = test_schema();
  StoreConfig cfg = store_config(dir.path(), StoreMode::kTiered);
  {
    dsos::DsosCluster db(cluster_config(1));
    db.register_schema(s);
    Store st(cfg);
    st.open(db);
    for (const auto& e : make_events(s, 40, 1, 1)) db.insert(e);
    st.flush_all();
    st.seal_all();
    st.close();
  }
  // Flip a byte in the segment's data block.
  std::string seg_path;
  for (const auto& entry : fsys::directory_iterator(dir.path())) {
    if (entry.path().string().ends_with(".seg")) {
      seg_path = entry.path().string();
    }
  }
  ASSERT_FALSE(seg_path.empty());
  const auto size = fsys::file_size(seg_path);
  {
    std::fstream f(seg_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size) - 8);
    char c = 0;
    f.read(&c, 1);
    f.seekp(static_cast<std::streamoff>(size) - 8);
    c = static_cast<char>(c ^ 0x10);
    f.write(&c, 1);
  }
  dsos::DsosCluster db(cluster_config(1));
  Store st(cfg);
  const RecoveryReport rep = st.open(db);
  EXPECT_EQ(rep.quarantined_segments, 1u);
  EXPECT_EQ(rep.rows_from_segments, 0u);  // nothing resurrected as garbage
  bool quarantine_file = false;
  for (const auto& entry : fsys::directory_iterator(dir.path())) {
    if (entry.path().string().ends_with(".quarantined")) {
      quarantine_file = true;
    }
  }
  EXPECT_TRUE(quarantine_file);  // evidence kept for post-mortem
  st.close();
}

// ------------------------------------------------- fault plan / injector --

TEST(FaultInjector, PlanRoundTripAndOccurrenceCounting) {
  const relia::FaultPlan plan =
      relia::parse_fault_plan("# store campaign\nstorecrash seal after 2\n");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(relia::to_string(plan.events[0]), "storecrash seal after 2");

  FaultInjector fi;
  EXPECT_EQ(fi.arm_from_plan(plan), 1u);
  EXPECT_FALSE(fi.should_crash(CrashPoint::kSeal));  // occurrence 1
  EXPECT_TRUE(fi.should_crash(CrashPoint::kSeal));   // occurrence 2 fires
  EXPECT_FALSE(fi.should_crash(CrashPoint::kSeal));  // disarmed after
  EXPECT_FALSE(fi.should_crash(CrashPoint::kWalCommit));
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
  const StoreConfig cfg = store_config(dir.path(), StoreMode::kWal, 32);
  {
    dsos::DsosCluster db(cluster_config(4));
    db.register_schema(s);
    Store st(cfg);
    st.open(db);
    dsos::IngestConfig icfg;
    icfg.workers = 2;
    icfg.batch = 16;
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
