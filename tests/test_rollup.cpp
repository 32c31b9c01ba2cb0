// Tests for the rollup subsystem: policy DSL parsing, the sparse
// log-bucket histogram, cell row round trips, engine fold/seal/query
// semantics, covering-policy selection, the randomized rollup-vs-raw
// equivalence property (including duplicate + out-of-order delivery and
// an at-least-once pipeline run under a transport fault plan), a reader
// racing parallel ingest writers, and FaultPlan-driven crash-recovery
// campaigns asserting recovered rollups answer queries byte-identically
// to an uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dsos/cluster.hpp"
#include "dsos/ingest.hpp"
#include "dsos/schema.hpp"
#include "exp/pipeline.hpp"
#include "exp/specs.hpp"
#include "heap_in_use.hpp"
#include "json/parser.hpp"
#include "relia/fault.hpp"
#include "rollup/cell.hpp"
#include "rollup/engine.hpp"
#include "rollup/policy.hpp"
#include "rollup/serve.hpp"
#include "rollup_fixtures.hpp"
#include "store/store.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/workload.hpp"

namespace dlc::rollup {
namespace {

namespace fsys = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fsys::temp_directory_path() /
             ("dlc_rollup_" + tag + "_" + std::to_string(counter_++)))
                .string();
    fsys::remove_all(path_);
    fsys::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fsys::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  static std::atomic<int> counter_;
  std::string path_;
};

std::atomic<int> TempDir::counter_{0};

dsos::Object event(const dsos::SchemaPtr& s, std::uint64_t job,
                   std::int64_t rank, const std::string& op, double ts,
                   double dur, std::int64_t len,
                   const std::string& producer = "nid00041",
                   const std::string& module = "POSIX") {
  return dsos::make_object(s,
                           {module, producer, rank, job, op, dur, len, ts});
}

dsos::ClusterConfig cluster_config(std::size_t shards) {
  dsos::ClusterConfig cfg;
  cfg.shard_count = shards;
  cfg.shard_attr = "rank";
  cfg.parallel_query = false;
  return cfg;
}

/// Independent raw-scan oracle: folds every object in the cluster, per
/// shard in slot (insertion) order then shards ascending — the same
/// accumulation order the engine commits to — into per-policy cell maps.
std::map<CellKey, CellAgg> reference_cells(const dsos::DsosCluster& db,
                                           const PolicyConfig& p) {
  std::map<CellKey, CellAgg> out;
  for (std::size_t s = 0; s < db.shard_count(); ++s) {
    std::map<CellKey, CellAgg> shard_cells;
    const dsos::Container& c = db.shard(s).container();
    for (std::size_t slot = 0; slot < c.size(); ++slot) {
      const dsos::Object& obj = c.object(slot);
      if (obj.schema->find_attr("seg_timestamp") == std::nullopt) continue;
      bool match = true;
      for (const MatchClause& clause : p.match) {
        std::string v;
        if (clause.attr == "job_id") {
          v = std::to_string(obj.as_uint("job_id"));
        } else if (clause.attr == "rank") {
          v = std::to_string(obj.as_int("rank"));
        } else {
          v = obj.as_string(clause.attr);
        }
        match = std::find(clause.values.begin(), clause.values.end(), v) !=
                clause.values.end();
        if (!match) break;
      }
      if (!match) continue;
      const double ts = obj.as_double("seg_timestamp");
      CellKey key;
      key.bucket = static_cast<std::int64_t>(std::floor(ts / p.bucket_s));
      if (p.has_key("job_id")) key.job = obj.as_uint("job_id");
      if (p.has_key("ProducerName")) key.producer = obj.as_string("ProducerName");
      if (p.has_key("rank")) key.rank = obj.as_int("rank");
      if (p.has_key("op")) key.op = obj.as_string("op");
      if (p.has_key("module")) key.module = obj.as_string("module");
      shard_cells[key].add(obj.as_int("seg_len"), obj.as_double("seg_dur"));
    }
    for (const auto& [key, agg] : shard_cells) out[key].merge(agg);
  }
  return out;
}

/// Engine query == raw-scan oracle, bit-exact (count, bytes, dur_sum,
/// min, max, histogram), for one policy.
void expect_matches_reference(const RollupEngine& engine,
                              const dsos::DsosCluster& db,
                              const PolicyConfig& p) {
  const std::map<CellKey, CellAgg> want = reference_cells(db, p);
  const std::vector<RollupCell> got = engine.query(p.name, {});
  ASSERT_EQ(got.size(), want.size()) << p.name;
  for (const RollupCell& cell : got) {
    const auto it = want.find(cell.key);
    ASSERT_NE(it, want.end()) << p.name;
    const CellAgg& ref = it->second;
    EXPECT_EQ(cell.agg.count, ref.count) << p.name;
    EXPECT_EQ(cell.agg.bytes, ref.bytes) << p.name;
    EXPECT_EQ(cell.agg.dur_sum, ref.dur_sum) << p.name;  // bit-exact
    EXPECT_EQ(cell.agg.dur_min, ref.dur_min) << p.name;
    EXPECT_EQ(cell.agg.dur_max, ref.dur_max) << p.name;
    EXPECT_EQ(cell.agg.dur_hist, ref.dur_hist) << p.name;
    EXPECT_EQ(cell.bucket_start,
              static_cast<double>(cell.key.bucket) * p.bucket_s);
  }
}

// ------------------------------------------------------------ policy DSL --

TEST(PolicyDsl, ParsesFullSpecAndRoundTrips) {
  const PolicySet set = parse_rollup_policies(
      "hot key=job_id,rank bucket=30s match=op:read|write,module:POSIX "
      "grace=90s");
  ASSERT_TRUE(set.ok()) << (set.errors.empty() ? "" : set.errors.front());
  ASSERT_EQ(set.policies.size(), 1u);
  const PolicyConfig& p = set.policies[0];
  EXPECT_EQ(p.name, "hot");
  EXPECT_EQ(p.keys, (std::vector<std::string>{"job_id", "rank"}));
  EXPECT_DOUBLE_EQ(p.bucket_s, 30.0);
  EXPECT_DOUBLE_EQ(p.grace(), 90.0);
  ASSERT_EQ(p.match.size(), 2u);
  EXPECT_EQ(p.match[0].attr, "op");
  EXPECT_EQ(p.match[0].values, (std::vector<std::string>{"read", "write"}));
  EXPECT_EQ(p.match[1].attr, "module");

  const PolicySet again = parse_rollup_policies(to_string(p));
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.policies.size(), 1u);
  EXPECT_EQ(to_string(again.policies[0]), to_string(p));
}

TEST(PolicyDsl, DefaultExpandsToTheFigurePolicies) {
  const PolicySet set = parse_rollup_policies("default");
  ASSERT_TRUE(set.ok());
  std::vector<std::string> names;
  for (const PolicyConfig& p : set.policies) names.push_back(p.name);
  EXPECT_EQ(names, (std::vector<std::string>{"op_counts", "node_requests",
                                             "rank_durations", "throughput"}));
  for (const PolicyConfig& p : set.policies) {
    EXPECT_GT(p.bucket_s, 0.0) << p.name;
    EXPECT_TRUE(p.has_key("job_id")) << p.name;
  }
}

TEST(PolicyDsl, MalformedSpecsLandInErrorsNotExceptions) {
  for (const char* bad : {
           "x bucket=60s",                    // no projection
           "x key=zork bucket=60s",           // unknown dimension
           "x key=job_id bucket=0",           // non-positive bucket
           "x key=job_id bucket=banana",      // unparsable duration
           "x key=job_id bucket=60s match=zork:1",  // unknown match dim
           "key=job_id bucket=60s",           // missing name
           // job_id is uint64: a signed value would compile to a clause
           // silently matching job 0.
           "x key=job_id bucket=60s match=job_id:-1",
           "x key=job_id bucket=60s match=rank:4x",  // trailing garbage
       }) {
    const PolicySet set = parse_rollup_policies(bad);
    EXPECT_FALSE(set.ok()) << bad;
    EXPECT_FALSE(set.errors.empty()) << bad;
  }
  // One bad spec does not poison its neighbours.
  const PolicySet mixed =
      parse_rollup_policies("ok key=op bucket=60s; bad key=zork bucket=60s");
  EXPECT_FALSE(mixed.ok());
  ASSERT_EQ(mixed.policies.size(), 1u);
  EXPECT_EQ(mixed.policies[0].name, "ok");
}

TEST(PolicyDsl, ParseSecondsAcceptsUnitSuffixes) {
  double v = 0;
  EXPECT_TRUE(parse_seconds("10", v));
  EXPECT_DOUBLE_EQ(v, 10.0);
  EXPECT_TRUE(parse_seconds("500ms", v));
  EXPECT_DOUBLE_EQ(v, 0.5);
  EXPECT_TRUE(parse_seconds("2m", v));
  EXPECT_DOUBLE_EQ(v, 120.0);
  EXPECT_TRUE(parse_seconds("250us", v));
  EXPECT_DOUBLE_EQ(v, 250e-6);
  EXPECT_FALSE(parse_seconds("banana", v));
  EXPECT_FALSE(parse_seconds("", v));
}

// ------------------------------------------------------ sparse histogram --

TEST(SparseLogHist, RecordMatchesLogBucketGeometry) {
  SparseLogHist h;
  const std::uint64_t sample = 123456;
  h.record(sample);
  EXPECT_EQ(h.total(), 1u);
  // A lone sample interpolates to the midpoint of its bucket, at every p.
  const std::uint32_t idx = log_bucket_index(sample);
  const double lo = static_cast<double>(log_bucket_lo(idx));
  const double hi = static_cast<double>(log_bucket_hi(idx));
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), lo + 0.5 * (hi - lo)) << p;
  }
}

TEST(SparseLogHist, PercentileMatchesDenseLogBucketPercentile) {
  // Sparse and dense views of the same samples must agree bit-for-bit at
  // every p — the detectors read SparseLogHist, the obs histograms read
  // the dense walk, and both feed the same z-score math.
  Rng rng(99);
  SparseLogHist sparse;
  std::array<std::uint64_t, kLogBucketCount> dense{};
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_u64() % 10'000'000;
    sparse.record(v);
    dense[log_bucket_index(v)]++;
  }
  for (double p = 0.0; p <= 100.0; p += 1.0) {
    EXPECT_DOUBLE_EQ(sparse.percentile(p),
                     log_bucket_percentile(dense.data(), dense.size(), p))
        << p;
  }
}

TEST(SparseLogHist, MergeEqualsConcatenation) {
  Rng rng(7);
  SparseLogHist a, b, all;
  for (int i = 0; i < 200; ++i) {
    const auto sample = rng.next_u64() % 1000000;
    (i % 2 ? a : b).record(sample);
    all.record(sample);
  }
  a.merge(b);
  EXPECT_EQ(a, all);
  EXPECT_EQ(a.total(), 200u);
}

TEST(SparseLogHist, EncodeDecodeRoundTripsAndRejectsGarbage) {
  SparseLogHist h;
  for (const std::uint64_t s : {1u, 17u, 444u, 444u, 1000000u}) h.record(s);
  SparseLogHist back;
  ASSERT_TRUE(SparseLogHist::decode(h.encode(), back));
  EXPECT_EQ(back, h);

  SparseLogHist empty;
  EXPECT_EQ(empty.encode(), "");
  ASSERT_TRUE(SparseLogHist::decode("", back));
  EXPECT_EQ(back, empty);

  EXPECT_FALSE(SparseLogHist::decode("1:2 x", back));
  EXPECT_FALSE(SparseLogHist::decode("nope", back));
}

// --------------------------------------------------------------- cell row --

TEST(CellRow, RoundTripsThroughTheDurableSchema) {
  const auto schema = rollup_cell_schema();
  CellKey key;
  key.job = 42;
  key.producer = "nid00043";
  key.rank = 7;
  key.op = "read";
  key.module = "POSIX";
  key.bucket = 26666666;
  CellAgg agg;
  agg.add(4096, 0.25);
  agg.add(-1, 0.5);  // negative seg_len clamps to 0 bytes, like fig9
  const dsos::Object row =
      cell_to_row(schema, "hot", key, 60.0, agg, /*shard=*/3, 1.6e9);

  RollupCell cell;
  std::uint64_t shard = 0;
  double watermark = 0;
  ASSERT_TRUE(row_to_cell(row, cell, shard, watermark));
  EXPECT_EQ(cell.policy, "hot");
  EXPECT_EQ(cell.key, key);
  EXPECT_EQ(cell.bucket_w, 60.0);
  EXPECT_EQ(cell.bucket_start, static_cast<double>(key.bucket) * 60.0);
  EXPECT_EQ(cell.agg.count, 2u);
  EXPECT_EQ(cell.agg.bytes, 4096u);
  EXPECT_EQ(cell.agg.dur_sum, 0.75);
  EXPECT_EQ(cell.agg.dur_min, 0.25);
  EXPECT_EQ(cell.agg.dur_max, 0.5);
  EXPECT_EQ(cell.agg.dur_hist, agg.dur_hist);
  EXPECT_EQ(shard, 3u);
  EXPECT_EQ(watermark, 1.6e9);
}

// ------------------------------------------------------------- the engine --

PolicySet must_parse(const std::string& text) {
  PolicySet set = parse_rollup_policies(text);
  EXPECT_TRUE(set.ok()) << (set.errors.empty() ? text : set.errors.front());
  return set;
}

TEST(Engine, FoldsCommittedEventsIntoProjectedCells) {
  const auto s = rollup_schema();
  dsos::DsosCluster db(cluster_config(2));
  db.register_schema(s);
  RollupEngineConfig cfg;
  cfg.policies = must_parse("ops key=job_id,op bucket=60s").policies;
  RollupEngine engine(cfg);
  engine.attach(db);

  db.insert(event(s, 1, 0, "read", 100.0, 0.25, 1000));
  db.insert(event(s, 1, 1, "read", 101.0, 0.5, 200));
  db.insert(event(s, 1, 0, "write", 102.0, 1.0, 4000));
  db.insert(event(s, 2, 0, "read", 190.0, 2.0, -1));
  engine.flush();

  // (job 1, read, bucket 1): two events, projected over rank/producer.
  RollupQuery j1_read;
  j1_read.jobs = {1};
  j1_read.ops = {"read"};
  const std::vector<RollupCell> cells = engine.query("ops", j1_read);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].key.job, 1u);
  EXPECT_EQ(cells[0].key.op, "read");
  EXPECT_EQ(cells[0].key.producer, "*");  // unkeyed dims collapse
  EXPECT_EQ(cells[0].key.rank, 0);
  EXPECT_EQ(cells[0].key.bucket, 1);
  EXPECT_EQ(cells[0].agg.count, 2u);
  EXPECT_EQ(cells[0].agg.bytes, 1200u);
  EXPECT_EQ(cells[0].agg.dur_sum, 0.75);

  // job 2's negative seg_len clamps to zero bytes.
  RollupQuery j2_q;
  j2_q.jobs = {2};
  const auto j2 = engine.query("ops", j2_q);
  ASSERT_EQ(j2.size(), 1u);
  EXPECT_EQ(j2[0].agg.count, 1u);
  EXPECT_EQ(j2[0].agg.bytes, 0u);

  EXPECT_EQ(engine.stats().events, 4u);
  expect_matches_reference(engine, db,
                           *engine.find_policy("ops"));
}

TEST(Engine, FoldedRowShowsInItsOpenCellBeforeAnyCommit) {
  const auto s = rollup_schema();
  dsos::DsosCluster db(cluster_config(2));
  db.register_schema(s);
  RollupEngineConfig cfg;
  cfg.policies = must_parse("ops key=job_id,op bucket=60s").policies;
  RollupEngine engine(cfg);
  engine.attach(db);

  // No commit: the rows are in their open cells at insert, as they are
  // in a raw query of the cluster.
  db.insert(event(s, 1, 0, "read", 100.0, 0.25, 1000));
  db.insert(event(s, 1, 1, "read", 101.0, 0.5, 200));
  const std::vector<RollupCell> cells = engine.query("ops", {});
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].agg.count, 2u);
  EXPECT_EQ(cells[0].agg.bytes, 1200u);
  EXPECT_GT(engine.stats().cells_open, 0u);
  expect_matches_reference(engine, db, *engine.find_policy("ops"));
}

TEST(Engine, MatchClausesFilterBeforeFolding) {
  const auto s = rollup_schema();
  dsos::DsosCluster db(cluster_config(1));
  db.register_schema(s);
  RollupEngineConfig cfg;
  cfg.policies =
      must_parse("rw key=job_id,op bucket=60s match=op:read|write").policies;
  RollupEngine engine(cfg);
  engine.attach(db);

  db.insert(event(s, 1, 0, "read", 100.0, 0.1, 10));
  db.insert(event(s, 1, 0, "open", 101.0, 0.2, -1));  // filtered out
  engine.flush();

  const auto cells = engine.query("rw", {});
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].key.op, "read");
  expect_matches_reference(engine, db, *engine.find_policy("rw"));
}

TEST(Engine, SealsPastTheWatermarkAndMergesSealedWithOpen) {
  const auto s = rollup_schema();
  dsos::DsosCluster db(cluster_config(2));
  db.register_schema(s);
  RollupEngineConfig cfg;
  // grace=0: a bucket seals as soon as the shard's clock passes its end.
  cfg.policies =
      must_parse("ops key=job_id,op bucket=10s grace=0").policies;
  RollupEngine engine(cfg);
  engine.attach(db);

  // 40 events, 1 s apart, committed every 10: buckets 10..3x seal while
  // later ones stay open.
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    db.insert(event(s, 1, rng.uniform_int(0, 3), i % 2 ? "read" : "write",
                    100.0 + i, 0.01 * (i + 1),
                    rng.uniform_int(0, 1 << 16)));
    if ((i + 1) % 10 == 0) {
      for (std::size_t sh = 0; sh < db.shard_count(); ++sh) {
        db.commit_shard(sh);
      }
    }
  }
  engine.flush();

  const RollupStats st = engine.stats();
  EXPECT_GT(st.spills, 0u);
  EXPECT_GT(st.sealed_rows, 0u);
  EXPECT_GT(st.cells_open, 0u);  // the tail bucket has not sealed
  // Sealed + open contributions merge into the full aggregate.
  expect_matches_reference(engine, db, *engine.find_policy("ops"));

  // seal_all pushes the tail out too; queries are split-independent.
  const std::string before = cell_fingerprint(engine.query("ops", {}));
  engine.seal_all();
  EXPECT_EQ(engine.stats().cells_open, 0u);
  EXPECT_EQ(cell_fingerprint(engine.query("ops", {})), before);
}

TEST(Engine, LateEventsBehindTheSealedFrontierAreDroppedAndCounted) {
  const auto s = rollup_schema();
  dsos::DsosCluster db(cluster_config(1));
  db.register_schema(s);
  RollupEngineConfig cfg;
  cfg.policies = must_parse("ops key=op bucket=10s grace=0").policies;
  RollupEngine engine(cfg);
  engine.attach(db);

  for (int i = 0; i < 30; ++i) {
    db.insert(event(s, 1, 0, "read", 100.0 + i, 0.1, 10));
  }
  db.commit_shard(0);  // seals buckets 10 and 11 (frontier = 129)
  const std::string before = cell_fingerprint(engine.query("ops", {}));
  ASSERT_GT(engine.stats().sealed_rows, 0u);

  db.insert(event(s, 1, 0, "read", 100.5, 9.0, 999));  // behind frontier
  db.commit_shard(0);
  EXPECT_EQ(engine.stats().late_dropped, 1u);
  EXPECT_EQ(cell_fingerprint(engine.query("ops", {})), before);
}

TEST(Engine, ReBucketQueriesMergeIntegerMultiplesOnly) {
  const auto s = rollup_schema();
  dsos::DsosCluster db(cluster_config(1));
  db.register_schema(s);
  RollupEngineConfig cfg;
  cfg.policies = must_parse("ops key=op bucket=10s").policies;
  RollupEngine engine(cfg);
  engine.attach(db);
  for (int i = 0; i < 40; ++i) {
    db.insert(event(s, 1, 0, "read", 100.0 + i, 0.5, 100));
  }
  engine.flush();

  const auto fine = engine.query("ops", {});
  ASSERT_EQ(fine.size(), 4u);  // buckets 10..13
  RollupQuery coarse_q;
  coarse_q.bucket_s = 20.0;
  const auto coarse = engine.query("ops", coarse_q);
  ASSERT_EQ(coarse.size(), 2u);
  EXPECT_EQ(coarse[0].bucket_w, 20.0);
  EXPECT_EQ(coarse[0].agg.count + coarse[1].agg.count, 40u);
  EXPECT_EQ(coarse[0].agg.count,
            fine[0].agg.count + fine[1].agg.count);

  RollupQuery ragged_q;
  ragged_q.bucket_s = 15.0;
  EXPECT_THROW(engine.query("ops", ragged_q), std::invalid_argument);
  EXPECT_THROW(engine.query("nope", {}), std::invalid_argument);
}

TEST(Engine, AttachIsIdempotentPerClusterAndExclusive) {
  const auto s = rollup_schema();
  dsos::DsosCluster db(cluster_config(1));
  db.register_schema(s);
  RollupEngineConfig cfg;
  cfg.policies = default_rollup_policies();
  RollupEngine engine(cfg);
  engine.attach(db);
  engine.attach(db);  // same cluster: no-op
  dsos::DsosCluster other(cluster_config(1));
  EXPECT_THROW(engine.attach(other), std::logic_error);

  EXPECT_THROW(RollupEngine(RollupEngineConfig{}), std::invalid_argument);
  RollupEngineConfig durable;
  durable.policies = default_rollup_policies();
  durable.store_mode = store::StoreMode::kTiered;  // no dir
  EXPECT_THROW(RollupEngine{durable}, std::invalid_argument);
}

TEST(Engine, StatusJsonReportsPoliciesAndTotals) {
  const auto s = rollup_schema();
  dsos::DsosCluster db(cluster_config(1));
  db.register_schema(s);
  RollupEngineConfig cfg;
  cfg.policies = default_rollup_policies();
  RollupEngine engine(cfg);
  engine.attach(db);
  db.insert(event(s, 1, 0, "read", 100.0, 0.1, 10));
  engine.flush();

  const auto doc = json::parse(engine.status_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_uint("events"), 1u);
  EXPECT_EQ(doc->get_uint("late_dropped"), 0u);
  const auto& policies = doc->find("policies")->as_array();
  ASSERT_EQ(policies.size(), 4u);
  EXPECT_EQ(policies[0].get_string("name"), "op_counts");
  EXPECT_FALSE(policies[0].get_string("spec").empty());
}

// --------------------------------------------------- covering policies ----

TEST(Serve, CoveringPolicyPrefersTheTightestProjection) {
  RollupEngineConfig cfg;
  cfg.policies = default_rollup_policies();
  RollupEngine engine(cfg);

  // fig5 groups by (job_id, op) over ALL ops: only an unfiltered policy
  // with a superset projection covers; op_counts (no extra keys) beats
  // rank_durations (filtered) and node_requests (filtered).
  const PolicyConfig* p = covering_policy(engine, {"job_id", "op"}, {});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name, "op_counts");

  // fig6 needs ProducerName and only open/close events: node_requests'
  // match=op:open|close is a superset of the panel's ops.
  p = covering_policy(engine, {"job_id", "ProducerName", "op"},
                      {"open", "close"});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name, "node_requests");

  // Same keys but an op outside the filter: nothing covers.
  EXPECT_EQ(covering_policy(engine, {"job_id", "ProducerName", "op"},
                            {"read"}),
            nullptr);

  // Time-bucketed requests need an integer multiple of the policy width.
  p = covering_policy(engine, {"job_id", "op"}, {"read", "write"}, 20.0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name, "throughput");  // 10 s divides 20 s
  EXPECT_EQ(covering_policy(engine, {"job_id", "op"}, {"read", "write"},
                            15.0),
            nullptr);
}

// ----------------------------------------------- equivalence property -----

/// Randomized streams with duplicate and out-of-order delivery: every
/// rollup cell must equal the raw-scan aggregate of what the cluster
/// actually stored, bit-exactly — the "dashboards never lie" property.
TEST(EquivalenceProperty, RandomStreamsWithDupsAndReorderMatchRawScan) {
  const auto s = rollup_schema();
  const std::vector<PolicyConfig> policies =
      must_parse("ops key=job_id,op bucket=60s;"
                 "nodes key=job_id,ProducerName,op bucket=60s "
                 "match=op:open|close;"
                 "ranks key=job_id,rank,op bucket=300s match=op:read|write;"
                 "mods key=module bucket=120s")
          .policies;
  const char* ops[] = {"read", "write", "open", "close"};
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    Rng rng(seed);
    // Generate an in-order stream, then a delivery order with ~10%
    // at-least-once duplicates and local reordering inside a 20 s window
    // — within every policy's grace, so nothing late-drops.
    std::vector<dsos::Object> stream;
    double ts = 1000.0;
    for (int i = 0; i < 800; ++i) {
      ts += rng.uniform(0.0, 2.0);
      stream.push_back(event(
          s, 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 2)),
          rng.uniform_int(0, 7), ops[rng.uniform_int(0, 3)], ts,
          rng.uniform(1e-5, 0.01), rng.uniform_int(-1, 1 << 16),
          "nid0004" + std::to_string(rng.uniform_int(0, 3)),
          rng.uniform() < 0.8 ? "POSIX" : "MPIIO"));
    }
    std::vector<dsos::Object> delivery;
    for (const dsos::Object& e : stream) {
      delivery.push_back(e);
      if (rng.uniform() < 0.1) delivery.push_back(e);  // redelivered dup
    }
    for (std::size_t i = 1; i < delivery.size(); ++i) {
      // Local shuffle: swap with a predecessor no further than ~10
      // events back (~10-20 s of stream time < the 120 s min grace).
      const auto back = static_cast<std::size_t>(rng.uniform_int(0, 10));
      if (back > 0 && back <= i) std::swap(delivery[i], delivery[i - back]);
    }

    dsos::DsosCluster db(cluster_config(4));
    db.register_schema(s);
    RollupEngineConfig cfg;
    cfg.policies = policies;
    RollupEngine engine(cfg);
    engine.attach(db);
    std::size_t since_commit = 0;
    for (dsos::Object& e : delivery) {
      db.insert(std::move(e));
      if (++since_commit >= 64) {
        since_commit = 0;
        for (std::size_t sh = 0; sh < db.shard_count(); ++sh) {
          db.commit_shard(sh);
        }
      }
    }
    engine.flush();

    EXPECT_EQ(engine.stats().late_dropped, 0u) << "seed " << seed;
    for (const PolicyConfig& p : policies) {
      expect_matches_reference(engine, db, p);
    }
  }
}

/// End-to-end: an at-least-once pipeline under a transport fault plan
/// (daemon crash + aggregator partition forcing spool/redelivery) with
/// rollups attached — the cells must equal a raw scan of the decoded
/// database even though delivery was faulty and duplicates arrived.
TEST(EquivalenceProperty, AtLeastOncePipelineRollupsMatchRawScan) {
  exp::ExperimentSpec spec = exp::base_spec(simfs::FsKind::kLustre);
  workloads::MpiIoTestConfig io;
  io.block_size = 4ull * 1024 * 1024;
  io.iterations = 3;
  io.collective = false;
  io.compute_per_iteration = 2 * kSecond;
  spec.workload = workloads::mpi_io_test(io);
  spec.exe = workloads::kMpiIoTestExe;
  spec.node_count = 3;
  spec.ranks_per_node = 4;
  spec.transport.hop_latency = 25 * kMillisecond;
  spec.connector.delivery = relia::DeliveryMode::kAtLeastOnce;
  spec.fault_plan = relia::parse_fault_plan(
      "crash nid00041 at 2500ms for 5s\n"
      "partition voltrino-head -> shirley at 9s for 4s\n");
  spec.decode_to_dsos = true;
  spec.connector.rollup_policies = "default";

  const exp::RunResult r = exp::run_experiment(spec);
  ASSERT_NE(r.rollups, nullptr);
  ASSERT_NE(r.dsos, nullptr);
  EXPECT_GT(r.redelivered, 0u);  // the plan really exercised redelivery
  EXPECT_GT(r.decoded_rows, 0u);
  EXPECT_EQ(r.rollups->stats().late_dropped, 0u);
  for (const PolicyConfig& p : r.rollups->policies()) {
    expect_matches_reference(*r.rollups, *r.dsos, p);
  }
}

/// A reader loops over query(), stats() and status_json() while three
/// ingest writers fold into four shards.  Every read sees each shard
/// whole, so a policy's total count never falls; after drain() the
/// cells equal a serial run's, bit for bit.
TEST(EquivalenceProperty, ReaderRacingParallelWritersSeesSerialCells) {
  const auto s = rollup_schema();
  const char* ops[] = {"read", "write", "open", "close"};
  std::vector<PolicyConfig> policies = default_rollup_policies();
  for (PolicyConfig& p : policies) {
    // Short buckets, no grace: cells seal while the reader runs.
    p.bucket_s = std::min(p.bucket_s, 30.0);
    p.grace_s = 0.0;
  }
  Rng rng(17);
  std::vector<dsos::Object> stream;
  for (int i = 0; i < 6000; ++i) {
    stream.push_back(event(
        s, 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 2)),
        rng.uniform_int(0, 7), ops[rng.uniform_int(0, 3)], 100.0 + 0.25 * i,
        rng.uniform(1e-4, 0.01), rng.uniform_int(-1, 4096),
        "nid0004" + std::to_string(rng.uniform_int(0, 3))));
  }
  const auto run = [&](std::size_t workers, bool race) {
    dsos::DsosCluster db(cluster_config(4));
    db.register_schema(s);
    RollupEngineConfig cfg;
    cfg.policies = policies;
    RollupEngine engine(cfg);
    engine.attach(db);
    std::atomic<bool> done{false};
    std::thread reader;
    if (race) {
      reader = std::thread([&] {
        std::vector<std::uint64_t> last(policies.size(), 0);
        while (!done.load(std::memory_order_acquire)) {
          for (std::size_t p = 0; p < policies.size(); ++p) {
            std::uint64_t total = 0;
            for (const RollupCell& c : engine.query(policies[p].name, {})) {
              total += c.agg.count;
            }
            EXPECT_GE(total, last[p]) << policies[p].name;
            last[p] = total;
          }
          EXPECT_LE(engine.stats().events, stream.size());
          EXPECT_FALSE(engine.status_json().empty());
        }
      });
    }
    dsos::IngestConfig icfg;
    icfg.workers = workers;
    dsos::IngestExecutor ex(db, icfg);
    for (const dsos::Object& e : stream) ex.submit(e);
    ex.drain();
    done.store(true, std::memory_order_release);
    if (reader.joinable()) reader.join();
    engine.flush();
    EXPECT_EQ(engine.stats().late_dropped, 0u);
    EXPECT_GT(engine.stats().sealed_rows, 0u);
    std::map<std::string, std::string> prints;
    for (const PolicyConfig& p : policies) {
      prints[p.name] = cell_fingerprint(engine.query(p.name, {}));
    }
    return prints;
  };
  const std::map<std::string, std::string> serial = run(0, false);
  const std::map<std::string, std::string> raced = run(3, true);
  for (const PolicyConfig& p : policies) {
    EXPECT_FALSE(serial.at(p.name).empty()) << p.name;
    EXPECT_EQ(raced.at(p.name), serial.at(p.name)) << p.name;
  }
}

// ------------------------------------------------------ durable spill ----

RollupEngineConfig spill_config(const std::string& policy,
                                const std::string& dir) {
  RollupEngineConfig cfg;
  cfg.policies = must_parse(policy).policies;
  cfg.store_mode = dir.empty() ? store::StoreMode::kMemory
                               : store::StoreMode::kTiered;
  cfg.dir = dir;
  return cfg;
}

class SealCounter final : public SealObserver {
 public:
  void on_sealed(std::string_view, std::size_t, double,
                 const std::vector<std::pair<CellKey, CellAgg>>&) override {
    ++batches;
  }
  std::size_t batches = 0;
};

TEST(Spill, FailedGroupCommitDeadensTheEngine) {
  // A seal batch whose WAL write fails is not durable: it must not be
  // counted or reach an observer, and the dead engine stops serving
  // cells (rollup/serve.cpp falls back to raw scans once crashed()).
  if (!fsys::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full to fail the spill's writes on";
  }
  const TempDir dir("devfull");
  fsys::create_symlink("/dev/full", fsys::path(dir.path()) / "wal-0.log");
  const auto s = rollup_schema();
  dsos::DsosCluster db(cluster_config(2));
  db.register_schema(s);
  RollupEngine engine(spill_config("ops key=job_id,op bucket=10s", dir.path()));
  engine.attach(db);
  SealCounter seals;
  engine.add_seal_observer(&seals);
  for (int i = 0; i < 100; ++i) {
    db.insert(event(s, 1, i % 4, i % 2 ? "read" : "write", 100.0 + i, 0.01,
                    64));
  }
  EXPECT_NO_THROW(engine.seal_all());
  EXPECT_TRUE(engine.crashed());
  EXPECT_EQ(engine.stats().sealed_rows, 0u);
  EXPECT_EQ(engine.stats().spills, 0u);
  EXPECT_EQ(seals.batches, 0u);
  EXPECT_NE(engine.status_json().find("\"crashed\":true"), std::string::npos)
      << engine.status_json();
  engine.remove_seal_observer(&seals);
}

TEST(Spill, DurableEngineKeepsNoSpilledRow) {
  // A spilled batch lives on in the sealed maps and the WAL, so a
  // durable engine's heap may exceed a memory engine's over the same
  // stream only by a bounded log state, not by a copy of every row.
  const auto s = rollup_schema();
  std::vector<dsos::Object> stream;
  for (int bucket = 0; bucket < 700; ++bucket) {
    for (std::int64_t rank = 0; rank < 4; ++rank) {
      for (const char* op : {"read", "write"}) {
        stream.push_back(
            event(s, 1, rank, op, bucket + 0.5, 0.01, 64 + bucket));
      }
    }
  }
  const TempDir dir("heap");
  std::uint64_t sealed = 0;
  const auto heap_growth = [&](const std::string& spill_dir) {
    dsos::DsosCluster db(cluster_config(2));
    db.register_schema(s);
    RollupEngine engine(
        spill_config("cells key=job_id,rank,op bucket=1s", spill_dir));
    engine.attach(db);
    const std::size_t before = heap_in_use();
    for (const dsos::Object& e : stream) db.insert(e);
    engine.seal_all();
    const std::size_t after = heap_in_use();
    sealed = engine.stats().sealed_rows;
    return static_cast<double>(after) - static_cast<double>(before);
  };
  const double memory = heap_growth("");
  ASSERT_GE(sealed, 5000u);
  if (memory < 64.0 * static_cast<double>(sealed)) {
    GTEST_SKIP() << "the allocator does not report heap use (mallinfo2)";
  }
  const double durable = heap_growth(dir.path());
  EXPECT_EQ(sealed, stream.size());
  EXPECT_LE(durable - memory, 32.0 * static_cast<double>(sealed))
      << "memory engine " << memory << " B, durable engine " << durable
      << " B over " << sealed << " sealed cells";
}

// ------------------------------------------------- crash campaigns --------

/// Drives a deterministic stream into a cluster with a durable-spill
/// engine until an armed crash fires, then refills a fresh cluster (the
/// raw side recovers through its own store in production), reattaches a
/// fresh engine on the same directory and checks the recovered rollups
/// answer every policy query byte-identically to an uninterrupted run.
void run_rollup_crash_campaign(const std::string& dir,
                               const std::string& plan_text) {
  const auto s = rollup_schema();
  const char* ops[] = {"read", "write", "open", "close"};
  const auto make_stream = [&] {
    Rng rng(5);
    std::vector<dsos::Object> stream;
    for (int i = 0; i < 1500; ++i) {
      stream.push_back(event(
          s, 1 + static_cast<std::uint64_t>(i % 2), rng.uniform_int(0, 3),
          ops[rng.uniform_int(0, 3)], 100.0 + 0.5 * i,
          rng.uniform(1e-4, 0.01), rng.uniform_int(0, 4096),
          "nid0004" + std::to_string(rng.uniform_int(0, 1))));
    }
    return stream;
  };
  const std::vector<dsos::Object> stream = make_stream();
  const auto ingest = [&](dsos::DsosCluster& db, RollupEngine& engine) {
    std::size_t n = 0;
    for (const dsos::Object& e : stream) {
      dsos::Object copy = e;
      db.insert(std::move(copy));
      if (++n % 128 == 0) {
        for (std::size_t sh = 0; sh < db.shard_count(); ++sh) {
          db.commit_shard(sh);
        }
      }
    }
    engine.flush();
  };

  // Uninterrupted oracle (memory mode — durability must not change
  // query results).
  std::map<std::string, std::string> want;
  {
    dsos::DsosCluster db(cluster_config(2));
    db.register_schema(s);
    RollupEngineConfig cfg;
    cfg.policies = default_rollup_policies();
    // Short buckets so seals/spills actually happen mid-stream.
    for (PolicyConfig& p : cfg.policies) {
      p.bucket_s = std::min(p.bucket_s, 60.0);
      p.grace_s = 0.0;
    }
    RollupEngine engine(cfg);
    engine.attach(db);
    ingest(db, engine);
    for (const PolicyConfig& p : engine.policies()) {
      want[p.name] = cell_fingerprint(engine.query(p.name, {}));
      EXPECT_FALSE(want[p.name].empty()) << p.name;
    }
  }

  const relia::FaultPlan plan = relia::parse_fault_plan(plan_text);
  ASSERT_TRUE(plan.ok()) << plan_text;
  RollupEngineConfig cfg;
  cfg.policies = default_rollup_policies();
  for (PolicyConfig& p : cfg.policies) {
    p.bucket_s = std::min(p.bucket_s, 60.0);
    p.grace_s = 0.0;
  }
  cfg.store_mode = store::StoreMode::kTiered;
  cfg.dir = dir;

  {
    dsos::DsosCluster db(cluster_config(2));
    db.register_schema(s);
    RollupEngine engine(cfg);
    engine.attach(db);
    ASSERT_GT(engine.arm_from_plan(plan), 0u) << plan_text;
    bool crashed = false;
    try {
      ingest(db, engine);
      engine.seal_all();
    } catch (const store::StoreCrash&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "plan never fired: " << plan_text;
    ASSERT_TRUE(engine.crashed());
    // The dead instance stays inert.
    const RollupStats at_crash = engine.stats();
    db.insert(stream.front());
    db.commit_shard(db.route(stream.front()));
    EXPECT_EQ(engine.stats().events, at_crash.events);
  }

  // Recovery: the raw cluster refills (its own store's job), a fresh
  // engine reopens the spill directory and replays the unsealed tail.
  dsos::DsosCluster db(cluster_config(2));
  db.register_schema(s);
  for (const dsos::Object& e : stream) {
    dsos::Object copy = e;
    db.insert(std::move(copy));
  }
  RollupEngine engine(cfg);
  const RollupRecovery rec = engine.attach(db);
  EXPECT_EQ(rec.replayed_events, stream.size());
  engine.flush();
  for (const PolicyConfig& p : engine.policies()) {
    EXPECT_EQ(cell_fingerprint(engine.query(p.name, {})), want[p.name])
        << p.name << " after " << plan_text;
  }
}

TEST(CrashCampaign, TornWalCommitRecoversIdenticalRollups) {
  const TempDir dir("wal");
  run_rollup_crash_campaign(dir.path(), "storecrash commit after 2\n");
}

TEST(CrashCampaign, RawWalLossNeverLeavesDurableRollupsAhead) {
  // The ordering half of the bit-identical-recovery invariant: the raw
  // store's WAL group commit runs BEFORE the rollup observer, so a
  // durable rollup spill can never cover raw events lost to a torn raw
  // WAL frame.  Here the RAW store (not the rollup spill log) crashes
  // mid group-commit and loses its last batch; the recovered rollups
  // must still agree bit-exactly with a raw scan of what the raw store
  // actually recovered.
  const TempDir raw_dir("rawloss_raw");
  const TempDir roll_dir("rawloss_roll");
  const auto s = rollup_schema();
  const char* ops[] = {"read", "write", "open", "close"};
  Rng rng(9);
  std::vector<dsos::Object> stream;
  for (int i = 0; i < 1200; ++i) {
    stream.push_back(event(
        s, 1 + static_cast<std::uint64_t>(i % 2), rng.uniform_int(0, 3),
        ops[rng.uniform_int(0, 3)], 100.0 + 0.5 * i, rng.uniform(1e-4, 0.01),
        rng.uniform_int(0, 4096),
        "nid0004" + std::to_string(rng.uniform_int(0, 1))));
  }

  store::StoreConfig raw_cfg;
  raw_cfg.mode = store::StoreMode::kTiered;
  raw_cfg.dir = raw_dir.path();
  // No automatic group commits: every WAL commit is an explicit
  // Container::commit, the barrier the rollup observer hangs off.
  raw_cfg.wal_group_records = 1u << 20;

  RollupEngineConfig cfg;
  cfg.policies = default_rollup_policies();
  // Short buckets, no grace: every commit round seals buckets that
  // include events of the batch being committed — exactly the window
  // where observer-before-sink ordering would spill unflushed raw data.
  for (PolicyConfig& p : cfg.policies) {
    p.bucket_s = std::min(p.bucket_s, 10.0);
    p.grace_s = 0.0;
  }
  cfg.store_mode = store::StoreMode::kTiered;
  cfg.dir = roll_dir.path();

  std::size_t inserted = 0;
  {
    dsos::DsosCluster db(cluster_config(2));
    db.register_schema(s);
    store::Store raw(raw_cfg);
    raw.open(db);
    RollupEngine engine(cfg);
    engine.attach(db);
    raw.faults().arm(store::CrashPoint::kWalCommit, 5);
    bool crashed = false;
    try {
      for (const dsos::Object& e : stream) {
        dsos::Object copy = e;
        db.insert(std::move(copy));
        if (++inserted % 128 == 0) {
          for (std::size_t sh = 0; sh < db.shard_count(); ++sh) {
            db.commit_shard(sh);
          }
        }
      }
    } catch (const store::StoreCrash&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "raw WAL crash never fired";
    ASSERT_TRUE(raw.crashed());
    // The raw store died, not the engine — but the skipped observer
    // notification means nothing of the torn batch was spilled.
    EXPECT_FALSE(engine.crashed());
    // Earlier commits really did spill durable rollup rows, so the
    // recovery below proves ordering, not an empty store.
    EXPECT_GT(engine.stats().sealed_rows, 0u);
  }

  // Recovery: fresh raw store (loses the torn batch), fresh engine on
  // the spill directory.
  dsos::DsosCluster db(cluster_config(2));
  db.register_schema(s);
  store::Store raw(raw_cfg);
  const store::RecoveryReport rep = raw.open(db);
  EXPECT_GT(rep.torn_tails, 0u);
  std::uint64_t recovered = 0;
  for (const std::uint64_t h : rep.high_seq) recovered += h;
  // The crash must actually have lost raw events, or this test checks
  // nothing.
  ASSERT_LT(recovered, inserted);
  ASSERT_GT(recovered, 0u);

  RollupEngine engine(cfg);
  const RollupRecovery rec = engine.attach(db);
  EXPECT_GT(rec.sealed_rows, 0u);
  engine.flush();
  // Bit-identical to a raw scan of the RECOVERED raw cluster: no
  // durable rollup row covers an event the raw store lost.
  for (const PolicyConfig& p : engine.policies()) {
    expect_matches_reference(engine, db, p);
  }
}

TEST(CrashCampaign, SealedRollupsSurviveRestartWithoutRawReplay) {
  // Seal everything, restart over an EMPTY raw cluster: every sealed
  // cell must still be served, purely from the spill log.
  const TempDir dir("restart");
  const auto s = rollup_schema();
  RollupEngineConfig cfg;
  cfg.policies = must_parse("ops key=job_id,op bucket=10s").policies;
  cfg.store_mode = store::StoreMode::kTiered;
  cfg.dir = dir.path();

  std::string want;
  {
    dsos::DsosCluster db(cluster_config(2));
    db.register_schema(s);
    RollupEngine engine(cfg);
    engine.attach(db);
    for (int i = 0; i < 100; ++i) {
      db.insert(event(s, 1, i % 4, i % 2 ? "read" : "write", 100.0 + i,
                      0.01, 64));
    }
    engine.seal_all();
    want = cell_fingerprint(engine.query("ops", {}));
    ASSERT_FALSE(want.empty());
  }

  dsos::DsosCluster empty(cluster_config(2));
  empty.register_schema(s);
  RollupEngine engine(cfg);
  const RollupRecovery rec = engine.attach(empty);
  EXPECT_GT(rec.sealed_rows, 0u);
  EXPECT_EQ(rec.replayed_events, 0u);
  EXPECT_EQ(cell_fingerprint(engine.query("ops", {})), want);
}

/// Commits one `rollup_cell` row to a spill log on `dir`, as the engine
/// does, then returns what attach() throws over a 2-shard raw cluster
/// ("" when it does not throw).
std::string attach_error_over_spilled_row(const std::string& dir,
                                          std::uint64_t shard,
                                          const std::string& dur_hist) {
  {
    CellKey key;
    key.job = 1;
    key.op = "read";
    key.bucket = 10;
    CellAgg agg;
    agg.add(64, 0.01);
    dsos::Object row =
        cell_to_row(rollup_cell_schema(), "ops", key, 10.0, agg, shard, 110.0);
    row.values[*row.schema->find_attr("dur_hist")] = dur_hist;
    store::Log spill;
    spill.open(dir, true, 1, [](std::size_t, store::WalReplay&) {});
    EXPECT_TRUE(spill.commit(0, {&row}));
  }
  dsos::DsosCluster db(cluster_config(2));
  db.register_schema(rollup_schema());
  RollupEngineConfig cfg;
  cfg.policies = must_parse("ops key=job_id,op bucket=10s").policies;
  cfg.store_mode = store::StoreMode::kTiered;
  cfg.dir = dir;
  RollupEngine engine(cfg);
  try {
    engine.attach(db);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(CrashCampaign, BadSpilledRowFailsRecoveryLoudly) {
  // A row that does not decode, or that names a shard the raw cluster
  // lacks, would vanish from every panel while its watermark still
  // holds its events behind the frontier.
  const TempDir garbage("badhist");
  const std::string bad_hist =
      attach_error_over_spilled_row(garbage.path(), 1, "not-a-histogram");
  EXPECT_NE(bad_hist.find("policy 'ops' on shard 1"), std::string::npos)
      << bad_hist;
  EXPECT_NE(bad_hist.find("does not decode"), std::string::npos) << bad_hist;

  const TempDir stray("badshard");
  SparseLogHist hist;
  hist.record(10'000'000);
  const std::string bad_shard =
      attach_error_over_spilled_row(stray.path(), 5, hist.encode());
  EXPECT_NE(bad_shard.find("policy 'ops' on shard 5 names a shard"),
            std::string::npos)
      << bad_shard;

  const TempDir good("goodrow");
  EXPECT_EQ(attach_error_over_spilled_row(good.path(), 1, hist.encode()), "");
}

}  // namespace
}  // namespace dlc::rollup
