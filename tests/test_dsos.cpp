// Tests for the DSOS layer: key encoding order preservation, schemas,
// joint indices, filtered queries, sharded clusters with merged parallel
// queries, CSV round-trips.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <thread>
#include <type_traits>
#include <vector>

#include "dsos/cluster.hpp"
#include "dsos/container.hpp"
#include "dsos/csv.hpp"
#include "dsos/index.hpp"
#include "dsos/schema.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace dlc::dsos {
namespace {

// ------------------------------------------------------------ encoding ----

template <typename T, typename Encode>
void expect_order_preserved(const std::vector<T>& sorted, Encode encode) {
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    KeyBytes a, b;
    encode(a, sorted[i - 1]);
    encode(b, sorted[i]);
    EXPECT_LT(a, b) << "at " << i;
  }
}

TEST(Encoding, Int64OrderPreserved) {
  expect_order_preserved<std::int64_t>(
      {std::numeric_limits<std::int64_t>::min(), -1'000'000, -1, 0, 1, 42,
       std::numeric_limits<std::int64_t>::max()},
      [](KeyBytes& out, std::int64_t v) { encode_int64(out, v); });
}

TEST(Encoding, Uint64OrderPreserved) {
  expect_order_preserved<std::uint64_t>(
      {0, 1, 255, 256, 1'000'000, std::numeric_limits<std::uint64_t>::max()},
      [](KeyBytes& out, std::uint64_t v) { encode_uint64(out, v); });
}

TEST(Encoding, DoubleOrderPreserved) {
  expect_order_preserved<double>(
      {-1e300, -1.5, -1e-300, 0.0, 1e-300, 1.0, 3.14, 1e300},
      [](KeyBytes& out, double v) { encode_double(out, v); });
}

TEST(Encoding, StringOrderPreservedIncludingPrefixes) {
  expect_order_preserved<std::string>(
      {"", "a", "aa", "ab", "b", std::string("b\0c", 3), "bc"},
      [](KeyBytes& out, const std::string& v) { encode_string(out, v); });
}

TEST(Encoding, PropertyRandomInt64PairsOrdered) {
  Rng rng(101);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::int64_t>(rng.next_u64());
    const auto b = static_cast<std::int64_t>(rng.next_u64());
    KeyBytes ka, kb;
    encode_int64(ka, a);
    encode_int64(kb, b);
    EXPECT_EQ(a < b, ka < kb);
    EXPECT_EQ(a == b, ka == kb);
  }
}

TEST(Encoding, PropertyRandomDoublePairsOrdered) {
  Rng rng(103);
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.uniform(-1e6, 1e6);
    const double b = rng.uniform(-1e6, 1e6);
    KeyBytes ka, kb;
    encode_double(ka, a);
    encode_double(kb, b);
    EXPECT_EQ(a < b, ka < kb) << a << " vs " << b;
  }
}

TEST(Encoding, PrefixUpperBound) {
  EXPECT_EQ(prefix_upper_bound("abc"), "abd");
  EXPECT_EQ(prefix_upper_bound(std::string("a\xff", 2)), "b");
  EXPECT_TRUE(prefix_upper_bound(std::string("\xff\xff", 2)).empty());
}

// -------------------------------------------------------------- schema ----

SchemaPtr test_schema() {
  return SchemaBuilder("events")
      .attr("job_id", AttrType::kUint64)
      .attr("rank", AttrType::kInt64)
      .attr("timestamp", AttrType::kTimestamp)
      .attr("op", AttrType::kString)
      .attr("dur", AttrType::kDouble)
      .index("job_rank_time", {"job_id", "rank", "timestamp"})
      .index("job_time_rank", {"job_id", "timestamp", "rank"})
      .index("time", {"timestamp"})
      .build();
}

Object make_event(const SchemaPtr& schema, std::uint64_t job, std::int64_t rank,
                  double ts, std::string op, double dur) {
  return make_object(schema,
                     {job, rank, ts, std::move(op), dur});
}

TEST(Schema, BuilderWiresAttrsAndIndices) {
  const auto schema = test_schema();
  EXPECT_EQ(schema->name(), "events");
  EXPECT_EQ(schema->attrs().size(), 5u);
  EXPECT_EQ(schema->attr_id("rank"), 1u);
  EXPECT_THROW(schema->attr_id("nope"), std::out_of_range);
  EXPECT_EQ(schema->index("job_rank_time").attr_ids,
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_FALSE(schema->find_index("bogus").has_value());
}

TEST(Schema, BuilderRejectsUnknownIndexAttr) {
  EXPECT_THROW(SchemaBuilder("s").attr("a", AttrType::kInt64).index("i", {"b"}),
               std::invalid_argument);
}

TEST(Schema, MakeObjectValidatesTypes) {
  const auto schema = test_schema();
  EXPECT_THROW(make_object(schema, {std::int64_t{1}}), std::invalid_argument);
  EXPECT_THROW(
      make_object(schema, {std::uint64_t{1}, std::int64_t{0}, 0.0,
                           std::string("open"), std::string("oops")}),
      std::invalid_argument);
}

// ----------------------------------------------------------- container ----

TEST(Container, InsertAndIndexOrderedScan) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  c.insert(make_event(schema, 2, 0, 30.0, "write", 0.5));
  c.insert(make_event(schema, 1, 1, 20.0, "read", 0.1));
  c.insert(make_event(schema, 1, 0, 10.0, "open", 0.01));
  const auto hits = c.select("events", "job_rank_time");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0]->as_uint("job_id"), 1u);
  EXPECT_EQ(hits[0]->as_int("rank"), 0);
  EXPECT_EQ(hits[1]->as_int("rank"), 1);
  EXPECT_EQ(hits[2]->as_uint("job_id"), 2u);
}

TEST(Container, RejectsUnregisteredSchema) {
  Container c;
  const auto schema = test_schema();
  EXPECT_THROW(c.insert(make_event(schema, 1, 0, 0.0, "open", 0.0)),
               std::out_of_range);
  c.register_schema(schema);
  EXPECT_THROW(c.select("other", "time"), std::out_of_range);
  EXPECT_THROW(c.select("events", "nope"), std::out_of_range);
}

TEST(Container, EqualityPrefixNarrowsScan) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  for (std::uint64_t job = 1; job <= 4; ++job) {
    for (std::int64_t rank = 0; rank < 8; ++rank) {
      for (int t = 0; t < 10; ++t) {
        c.insert(make_event(schema, job, rank, t * 1.0, "write", 0.1));
      }
    }
  }
  // job==2 && rank==3 via job_rank_time: exactly 10 entries scanned.
  const Filter filter{{"job_id", Cmp::kEq, std::uint64_t{2}},
                      {"rank", Cmp::kEq, std::int64_t{3}}};
  const auto hits = c.select("events", "job_rank_time", filter);
  EXPECT_EQ(hits.size(), 10u);
  EXPECT_EQ(c.last_scanned(), 10u);
  // Same query via the `time` index must scan everything.
  const auto hits2 = c.select("events", "time", filter);
  EXPECT_EQ(hits2.size(), 10u);
  EXPECT_EQ(c.last_scanned(), 320u);
}

TEST(Container, ResidualConditionsApply) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  for (int t = 0; t < 10; ++t) {
    c.insert(make_event(schema, 1, 0, t * 1.0, t % 2 ? "read" : "write",
                        t * 0.1));
  }
  const Filter filter{{"job_id", Cmp::kEq, std::uint64_t{1}},
                      {"op", Cmp::kEq, std::string("read")},
                      {"dur", Cmp::kGt, 0.25}};
  const auto hits = c.select("events", "job_rank_time", filter);
  ASSERT_EQ(hits.size(), 4u);  // t in {3,5,7,9}
  for (const Object* o : hits) {
    EXPECT_EQ(o->as_string("op"), "read");
    EXPECT_GT(o->as_double("dur"), 0.25);
  }
}

TEST(Container, ComparisonOperatorsWork) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  for (int t = 0; t < 5; ++t) {
    c.insert(make_event(schema, 1, t, t * 10.0, "w", 1.0));
  }
  EXPECT_EQ(c.select("events", "time",
                     {{"timestamp", Cmp::kGe, 20.0}}).size(),
            3u);
  EXPECT_EQ(c.select("events", "time",
                     {{"timestamp", Cmp::kLt, 20.0}}).size(),
            2u);
  EXPECT_EQ(c.select("events", "time",
                     {{"rank", Cmp::kNe, std::int64_t{0}}}).size(),
            4u);
}

TEST(Container, DuplicateKeysAreKept) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  c.insert(make_event(schema, 1, 0, 5.0, "a", 0.0));
  c.insert(make_event(schema, 1, 0, 5.0, "b", 0.0));
  EXPECT_EQ(c.select("events", "job_rank_time").size(), 2u);
}

// ------------------------------------------------------------- cluster ----

TEST(Cluster, ShardsByRankAndMergesInKeyOrder) {
  ClusterConfig cfg;
  cfg.shard_count = 4;
  cfg.shard_attr = "rank";
  DsosCluster cluster(cfg);
  const auto schema = test_schema();
  cluster.register_schema(schema);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    cluster.insert(make_event(schema, 1 + static_cast<std::uint64_t>(i % 3),
                              rng.uniform_int(0, 15), rng.uniform(0, 100),
                              "write", 0.1));
  }
  EXPECT_EQ(cluster.total_objects(), 500u);
  // Objects should be spread across shards.
  std::size_t nonempty = 0;
  for (std::size_t s = 0; s < cluster.shard_count(); ++s) {
    nonempty += cluster.shard(s).container().size() > 0;
  }
  EXPECT_GE(nonempty, 3u);

  const auto merged = cluster.query("events", "job_rank_time");
  ASSERT_EQ(merged.size(), 500u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const auto& a = *merged[i - 1];
    const auto& b = *merged[i];
    const auto ta = std::tuple(a.as_uint("job_id"), a.as_int("rank"),
                               a.as_double("timestamp"));
    const auto tb = std::tuple(b.as_uint("job_id"), b.as_int("rank"),
                               b.as_double("timestamp"));
    EXPECT_LE(ta, tb);
  }
}

TEST(Cluster, ParallelAndSerialQueriesAgree) {
  const auto schema = test_schema();
  ClusterConfig par;
  par.shard_count = 4;
  par.parallel_query = true;
  ClusterConfig ser = par;
  ser.parallel_query = false;
  DsosCluster a(par), b(ser);
  a.register_schema(schema);
  b.register_schema(schema);
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    auto obj = make_event(schema, 1, rng.uniform_int(0, 7),
                          rng.uniform(0, 50), i % 2 ? "read" : "write",
                          rng.uniform(0, 2));
    b.insert(obj);
    a.insert(std::move(obj));
  }
  const Filter filter{{"job_id", Cmp::kEq, std::uint64_t{1}},
                      {"op", Cmp::kEq, std::string("read")}};
  const auto ra = a.query("events", "job_rank_time", filter);
  const auto rb = b.query("events", "job_rank_time", filter);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i]->as_double("timestamp"), rb[i]->as_double("timestamp"));
    EXPECT_EQ(ra[i]->as_int("rank"), rb[i]->as_int("rank"));
  }
}

TEST(Cluster, FallsBackToRoundRobinWithoutShardAttr) {
  ClusterConfig cfg;
  cfg.shard_count = 3;
  cfg.shard_attr = "no_such_attr";
  DsosCluster cluster(cfg);
  const auto schema = test_schema();
  cluster.register_schema(schema);
  for (int i = 0; i < 9; ++i) {
    cluster.insert(make_event(schema, 1, 0, i * 1.0, "w", 0.0));
  }
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(cluster.shard(s).container().size(), 3u);
  }
}

// ----------------------------------------------------------------- csv ----

TEST(Csv, HeaderAndRowRoundTrip) {
  const auto schema = test_schema();
  EXPECT_EQ(csv_header(*schema), "job_id,rank,timestamp,op,dur");
  const Object obj = make_event(schema, 7, 3, 123.456, "op,with,commas", 0.25);
  const std::string row = csv_row(obj);
  const auto parsed = csv_parse_row(schema, row);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_uint("job_id"), 7u);
  EXPECT_EQ(parsed->as_int("rank"), 3);
  EXPECT_DOUBLE_EQ(parsed->as_double("timestamp"), 123.456);
  EXPECT_EQ(parsed->as_string("op"), "op,with,commas");
  EXPECT_DOUBLE_EQ(parsed->as_double("dur"), 0.25);
}

TEST(Csv, ParseRejectsBadRows) {
  const auto schema = test_schema();
  EXPECT_FALSE(csv_parse_row(schema, "1,2").has_value());
  EXPECT_FALSE(csv_parse_row(schema, "x,0,0,op,0").has_value());
  EXPECT_FALSE(csv_parse_row(schema, "1,0,zebra,op,0").has_value());
  EXPECT_FALSE(csv_parse_row(schema, "1,0,,op,0").has_value());
  EXPECT_FALSE(csv_parse_row(schema, "-5,0,0,op,0").has_value());
}

TEST(Csv, ExportWritesAllRows) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  c.insert(make_event(schema, 1, 0, 1.0, "open", 0.0));
  c.insert(make_event(schema, 1, 0, 2.0, "close", 0.0));
  std::ostringstream out;
  export_csv(out, *schema, c.select("events", "time"));
  const auto lines = dlc::split(out.str(), '\n');
  ASSERT_EQ(lines.size(), 4u);  // header + 2 rows + trailing empty
  EXPECT_EQ(lines[0], "job_id,rank,timestamp,op,dur");
  EXPECT_NE(lines[1].find("open"), std::string::npos);
}


// ----------------------------------------------------------- container ----

// An attached commit sink and the observers hold a container's address
// (store::Store, rollup::RollupEngine), so it cannot move out from under
// them.
static_assert(!std::is_move_constructible_v<dsos::Container> &&
              !std::is_move_assignable_v<dsos::Container>);

// Low bytes collide with the escape alphabet ({0x00,0x01} escapes, 0x00
// terminator), so ordering around '\0' and '\x01' is the hard case for
// the string encoding.
TEST(Encoding, StringOrderPreservedWithLowBytes) {
  expect_order_preserved<std::string>(
      {std::string(""), std::string("\0", 1), std::string("\0\x01", 2),
       std::string("\x01", 1), std::string("a")},
      [](KeyBytes& out, const std::string& v) { encode_string(out, v); });
}

// ----------------------------------------------------------- zone maps ----

TEST(Container, ZoneMapsPruneDisjointTimeFilter) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  for (int t = 0; t < 10; ++t) {
    c.insert(make_event(schema, 1, t % 4, t * 1.0, "w", 0.1));
  }
  // Timestamps span [0, 9]: a filter for >= 100 is provably empty.
  const Filter disjoint{{"timestamp", Cmp::kGe, 100.0}};
  EXPECT_FALSE(c.can_match("events", disjoint));
  const std::uint64_t pruned_before = c.zone_pruned();
  EXPECT_TRUE(c.query("events", "time", disjoint).empty());
  EXPECT_EQ(c.zone_pruned(), pruned_before + 1);
  EXPECT_EQ(c.last_scanned(), 0u);  // skipped without touching the index

  // With zone maps off the same query scans and still returns nothing.
  c.set_zone_maps(false);
  EXPECT_TRUE(c.query("events", "time", disjoint).empty());
  EXPECT_GT(c.last_scanned(), 0u);
  c.set_zone_maps(true);

  // A filter overlapping the zone must not be pruned.
  const Filter overlapping{{"timestamp", Cmp::kGe, 5.0}};
  EXPECT_TRUE(c.can_match("events", overlapping));
  EXPECT_EQ(c.query("events", "time", overlapping).size(), 5u);
}

TEST(Container, ZoneMapsMatchUnprunedResults) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    c.insert(make_event(schema, 1 + static_cast<std::uint64_t>(i % 3),
                        rng.uniform_int(0, 7), rng.uniform(0, 50), "w",
                        rng.uniform()));
  }
  const std::vector<Filter> filters{
      {{"timestamp", Cmp::kLt, 10.0}},
      {{"job_id", Cmp::kEq, std::uint64_t{2}}},
      {{"job_id", Cmp::kEq, std::uint64_t{9}}},  // disjoint: prunable
      {{"rank", Cmp::kGe, std::int64_t{6}}},
      {{"op", Cmp::kEq, std::string("w")}},  // unindexed attr: no zone
  };
  for (const Filter& f : filters) {
    c.set_zone_maps(true);
    const auto pruned = c.query("events", "time", f);
    c.set_zone_maps(false);
    const auto unpruned = c.query("events", "time", f);
    ASSERT_EQ(pruned.size(), unpruned.size());
    for (std::size_t i = 0; i < pruned.size(); ++i) {
      EXPECT_EQ(pruned[i].object, unpruned[i].object);
    }
  }
  c.set_zone_maps(true);
}

TEST(Container, ZoneMapsUnknownAttrIsProvablyEmpty) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  c.insert(make_event(schema, 1, 0, 1.0, "w", 0.1));
  // matches() rejects every object on an unknown attribute, so pruning
  // the whole scan is exact, not approximate.
  const Filter f{{"no_such_attr", Cmp::kEq, std::int64_t{1}}};
  EXPECT_FALSE(c.can_match("events", f));
  EXPECT_TRUE(c.query("events", "time", f).empty());
}

// ---------------------------------------------------------------- limit ----

TEST(Container, QueryLimitCapsResultsInOrder) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  for (int t = 9; t >= 0; --t) {
    c.insert(make_event(schema, 1, 0, t * 1.0, "w", 0.1));
  }
  const auto full = c.query("events", "time");
  ASSERT_EQ(full.size(), 10u);
  const auto limited = c.query("events", "time", {}, 3);
  ASSERT_EQ(limited.size(), 3u);
  for (std::size_t i = 0; i < limited.size(); ++i) {
    EXPECT_EQ(limited[i].object, full[i].object);
  }
  // Residual filtering happens before the cap: the limit counts matching
  // rows, not scanned rows.
  const Filter odd_dur{{"op", Cmp::kEq, std::string("w")},
                       {"timestamp", Cmp::kGe, 4.0}};
  const auto filtered = c.query("events", "time", odd_dur, 2);
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].object->as_double("timestamp"), 4.0);
  EXPECT_EQ(filtered[1].object->as_double("timestamp"), 5.0);
}

TEST(Cluster, QueryLimitReturnsGlobalPrefix) {
  ClusterConfig cfg;
  cfg.shard_count = 4;
  cfg.shard_attr = "rank";
  DsosCluster cluster(cfg);
  const auto schema = test_schema();
  cluster.register_schema(schema);
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    cluster.insert(make_event(schema, 1, rng.uniform_int(0, 15),
                              rng.uniform(0, 100), "w", 0.1));
  }
  const auto full = cluster.query("events", "job_rank_time");
  ASSERT_EQ(full.size(), 200u);
  const auto limited = cluster.query("events", "job_rank_time", {}, 25);
  ASSERT_EQ(limited.size(), 25u);
  // The limited result is exactly the first 25 of the global merge order.
  for (std::size_t i = 0; i < limited.size(); ++i) {
    EXPECT_EQ(limited[i], full[i]);
  }
}

// Regression: the parallel query path used to capture the shard loop
// variable by reference ([&]), so every async task raced on the mutating
// iteration state and could query the wrong (or a dead) shard.  With the
// by-value capture, repeated parallel queries match a serial cluster.
TEST(Cluster, ParallelQueryCapturesShardByValue) {
  const auto schema = test_schema();
  ClusterConfig par;
  par.shard_count = 16;
  par.shard_attr = "rank";
  par.parallel_query = true;
  ClusterConfig ser = par;
  ser.parallel_query = false;
  DsosCluster a(par), b(ser);
  a.register_schema(schema);
  b.register_schema(schema);
  Rng rng(29);
  for (int i = 0; i < 320; ++i) {
    auto obj = make_event(schema, 1 + static_cast<std::uint64_t>(i % 2),
                          rng.uniform_int(0, 15), rng.uniform(0, 100), "w",
                          0.1);
    b.insert(obj);
    a.insert(std::move(obj));
  }
  for (int iter = 0; iter < 20; ++iter) {
    const auto ra = a.query("events", "job_rank_time");
    const auto rb = b.query("events", "job_rank_time");
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i]->as_int("rank"), rb[i]->as_int("rank"));
      ASSERT_EQ(ra[i]->as_double("timestamp"), rb[i]->as_double("timestamp"));
    }
  }
}

// Regression for a race the annotation pass surfaced: query() is const
// but mutates the last_scanned_/zone_pruned_ diagnostics, and the cluster
// runs per-shard queries on real threads — two concurrent queries against
// one container raced on the counters (now behind the stats mutex).
TEST(Container, ConcurrentQueriesKeepStatsCoherent) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  for (int t = 0; t < 64; ++t) {
    c.insert(make_event(schema, 1, t % 4, t * 1.0, "w", 0.1));
  }
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  const Filter disjoint{{"timestamp", Cmp::kGe, 1e6}};  // always pruned
  const std::uint64_t pruned_before = c.zone_pruned();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &disjoint] {
      for (int i = 0; i < kIters; ++i) {
        EXPECT_TRUE(c.query("events", "time", disjoint).empty());
        // Identical queries => every thread should observe a coherent
        // value written by SOME pruned query, never a torn/stale mix.
        EXPECT_EQ(c.last_scanned(), 0u);
      }
    });
  }
  for (auto& t : threads) t.join();
  // No lost increments: each of the kThreads * kIters pruned queries
  // bumped the counter exactly once.
  EXPECT_EQ(c.zone_pruned(), pruned_before + kThreads * kIters);
}

}  // namespace
}  // namespace dlc::dsos
