// Tests for the DSOS layer: key encoding order preservation, schemas,
// joint indices, filtered queries, sharded clusters with merged parallel
// queries, CSV round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/schema_darshan.hpp"
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
  const Filter filter{{"job_id", std::uint64_t{2}}, {"rank", std::int64_t{3}}};
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
  // job_id is the job_rank_time prefix; op and dur are checked per row.
  const Filter reads{{"job_id", std::uint64_t{1}}, {"op", std::string("read")}};
  const auto hits = c.select("events", "job_rank_time", reads);
  ASSERT_EQ(hits.size(), 5u);  // t in {1,3,5,7,9}
  for (const Object* o : hits) EXPECT_EQ(o->as_string("op"), "read");
  Filter one = reads;
  one.push_back({"dur", 0.5});
  const auto hit = c.select("events", "job_rank_time", one);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0]->as_double("timestamp"), 5.0);
  EXPECT_EQ(c.last_scanned(), 10u);
}

// Equality is the one comparison a condition makes; it holds for every
// attribute type, as the scanned prefix and as a per-row check.
TEST(Container, ComparisonOperatorsWork) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  for (int t = 0; t < 5; ++t) {
    c.insert(make_event(schema, 1, t, t * 10.0, t % 2 ? "r" : "w", t * 0.5));
  }
  const auto ranks = [&c](std::string_view index, const Filter& f) {
    std::vector<std::int64_t> out;
    for (const Object* o : c.select("events", index, f)) {
      out.push_back(o->as_int("rank"));
    }
    return out;
  };
  using Ranks = std::vector<std::int64_t>;
  // timestamp is the `time` prefix; the other attributes are per-row checks.
  EXPECT_EQ(ranks("time", {{"timestamp", 20.0}}), Ranks{2});
  EXPECT_TRUE(ranks("time", {{"timestamp", 25.0}}).empty());
  EXPECT_EQ(ranks("time", {{"job_id", std::uint64_t{1}}}),
            (Ranks{0, 1, 2, 3, 4}));
  EXPECT_TRUE(ranks("time", {{"job_id", std::uint64_t{2}}}).empty());
  EXPECT_EQ(ranks("time", {{"rank", std::int64_t{3}}}), Ranks{3});
  EXPECT_EQ(ranks("time", {{"op", std::string("w")}}), (Ranks{0, 2, 4}));
  EXPECT_EQ(ranks("time", {{"dur", 1.0}}), Ranks{2});
  EXPECT_TRUE(
      ranks("time", {{"op", std::string("r")}, {"dur", 1.0}}).empty());
  // job_id and rank as the job_rank_time prefix.
  EXPECT_EQ(ranks("job_rank_time",
                  {{"job_id", std::uint64_t{1}}, {"rank", std::int64_t{3}}}),
            Ranks{3});
  EXPECT_EQ(c.last_scanned(), 1u);
  EXPECT_TRUE(ranks("job_rank_time",
                    {{"job_id", std::uint64_t{1}}, {"rank", std::int64_t{7}}})
                  .empty());
  EXPECT_EQ(c.last_scanned(), 0u);
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
  const Filter filter{{"job_id", std::uint64_t{1}},
                      {"op", std::string("read")}};
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

// ------------------------------------------------------------ equality ----

TEST(Container, UnknownAttrMatchesNoRow) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  c.insert(make_event(schema, 1, 0, 1.0, "w", 0.1));
  // A conjunction with a condition no row can satisfy selects nothing.
  const Filter f{{"no_such_attr", std::int64_t{1}}};
  EXPECT_TRUE(c.query("events", "time", f).empty());
  EXPECT_EQ(c.last_scanned(), 0u);
}

// One equality wherever a condition sits: a scanned prefix and a per-row
// check both compare index-key bytes, so a double matches only its own
// bit pattern (NaN included), and a value of the wrong type throws.
TEST(Container, EqualityIsIndexKeyEquality) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  c.insert(make_event(schema, 1, 0, 0.0, "w", 0.5));
  c.insert(make_event(schema, 1, 1, -0.0, "w", nan));
  c.insert(make_event(schema, 1, 2, nan, "w", -0.0));
  c.insert(make_event(schema, 1, 3, 2.0, "w", 0.0));
  const auto ranks = [&c](std::string_view index, const Filter& f) {
    std::vector<std::int64_t> out;
    for (const Object* o : c.select("events", index, f)) {
      out.push_back(o->as_int("rank"));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  using Ranks = std::vector<std::int64_t>;
  // dur is in no index: always a per-row check.
  EXPECT_EQ(ranks("time", {{"dur", nan}}), Ranks{1});
  EXPECT_EQ(ranks("time", {{"dur", 0.0}}), Ranks{3});
  EXPECT_EQ(ranks("time", {{"dur", -0.0}}), Ranks{2});
  EXPECT_TRUE(ranks("time", {{"dur", 12345.5}}).empty());
  // timestamp is the `time` prefix and a per-row check on job_rank_time
  // (no job_id given); both answer alike.
  for (const double ts : {nan, 0.0, -0.0, 2.0, 7.0}) {
    EXPECT_EQ(ranks("time", {{"timestamp", ts}}),
              ranks("job_rank_time", {{"timestamp", ts}}))
        << ts;
  }
  EXPECT_EQ(ranks("time", {{"timestamp", nan}}), Ranks{2});
  EXPECT_EQ(ranks("job_rank_time", {{"timestamp", 0.0}}), Ranks{0});
  // A value of another type throws as a prefix and as a per-row check.
  for (const std::string_view index : {"job_rank_time", "time"}) {
    EXPECT_THROW(c.query("events", index, {{"job_id", std::int64_t{1}}}),
                 std::invalid_argument)
        << index;
    const Filter bad_dur{{"job_id", std::uint64_t{1}},
                         {"dur", std::int64_t{0}}};
    EXPECT_THROW(c.query("events", index, bad_dur), std::invalid_argument)
        << index;
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

// ------------------------------------------------------ planner oracle ----

/// A brute-force reading of one equality: same type and same value, and
/// for doubles the same bit pattern.
bool oracle_equal(const Value& row, const Value& cond) {
  const double* a = std::get_if<double>(&row);
  const double* b = std::get_if<double>(&cond);
  if (a != nullptr && b != nullptr) {
    return std::memcmp(a, b, sizeof(double)) == 0;
  }
  return row == cond;
}

// Random equality filters over darshan rows: on every index, with
// parallel and serial fan-out, a cluster query equals a brute-force
// filter of all rows sorted by that index's key (ties by shard, then
// insertion order, the merge's tie-break).  Filters mix indexed and
// unindexed attributes, repeat attributes, and use values the data lacks,
// NaN and -0.0.
TEST(Cluster, EqualityQueriesMatchBruteForce) {
  const SchemaPtr schema = core::darshan_data_schema();
  ClusterConfig par;
  par.shard_count = 4;
  par.shard_attr = "rank";
  ClusterConfig ser = par;
  ser.parallel_query = false;
  DsosCluster a(par), b(ser);
  a.register_schema(schema);
  b.register_schema(schema);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::size_t job = schema->attr_id("job_id");
  const std::size_t rank = schema->attr_id("rank");
  const std::size_t ts = schema->attr_id("seg_timestamp");
  const std::size_t dur = schema->attr_id("seg_dur");
  const std::size_t op = schema->attr_id("op");
  const std::size_t producer = schema->attr_id("ProducerName");
  const std::size_t id = schema->attr_id("record_id");
  const std::vector<double> times{0.0, -0.0, 0.5, 1.0, 1.5, 2.0, nan};
  const std::vector<double> durs{0.0, -0.0, 0.25, 1.5, nan};
  const std::vector<std::string> ops{"read", "write", "open"};

  Rng rng(43);
  const auto pick = [&rng](const auto& values) {
    return values[rng.next_u64() % values.size()];
  };
  std::vector<Object> rows;
  std::vector<std::size_t> shard_of;
  for (std::uint64_t i = 0; i < 600; ++i) {
    std::vector<Value> values = core::darshan_default_row();
    values[job] = std::uint64_t{1 + rng.next_u64() % 3};
    values[rank] = rng.uniform_int(0, 7);
    values[ts] = pick(times);
    values[dur] = pick(durs);
    values[op] = pick(ops);
    values[producer] = "nid" + std::to_string(rng.uniform_int(40, 42));
    values[id] = i;
    rows.push_back(make_object(schema, std::move(values)));
    shard_of.push_back(a.route(rows.back()));
    a.insert(rows.back());
    b.insert(rows.back());
  }

  // Attribute pool: job, rank and time are indexed; the rest are not.
  const std::vector<std::size_t> attrs{job, rank, ts, dur, op, producer};
  const auto condition = [&]() -> Condition {
    const std::size_t attr = pick(attrs);
    const std::string& name = schema->attrs()[attr].name;
    switch (rng.next_u64() % 4) {
      case 0:  // a value the data lacks
        if (attr == job) return {name, std::uint64_t{99}};
        if (attr == rank) return {name, std::int64_t{42}};
        if (attr == op || attr == producer) return {name, std::string("x")};
        return {name, 7.75};
      case 1:  // NaN, where the type allows it
        if (attr == ts || attr == dur) return {name, nan};
        [[fallthrough]];
      default:  // a value some row holds
        return {name, rows[rng.next_u64() % rows.size()].values[attr]};
    }
  };

  for (int f = 0; f < 300; ++f) {
    Filter filter;
    const std::uint64_t n = rng.next_u64() % 4;
    for (std::uint64_t k = 0; k < n; ++k) filter.push_back(condition());
    if (f % 10 == 0 && !filter.empty()) filter.push_back(filter.front());

    for (const IndexDef& index : schema->indices()) {
      std::vector<std::tuple<KeyBytes, std::size_t, std::uint64_t>> want;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const bool match =
            std::all_of(filter.begin(), filter.end(), [&](const Condition& c) {
              return oracle_equal(rows[r].values[schema->attr_id(c.attr)],
                                  c.value);
            });
        if (!match) continue;
        KeyBytes key;
        encode_key_into(key, rows[r], index);
        want.emplace_back(std::move(key), shard_of[r], r);
      }
      std::sort(want.begin(), want.end());
      std::vector<std::uint64_t> want_ids;
      for (const auto& w : want) want_ids.push_back(std::get<2>(w));

      for (const DsosCluster* cluster : {&a, &b}) {
        std::vector<std::uint64_t> got_ids;
        for (const Object* o : cluster->query("darshan_data", index.name,
                                              filter)) {
          got_ids.push_back(o->as_uint("record_id"));
        }
        ASSERT_EQ(got_ids, want_ids)
            << "filter " << f << " on " << index.name
            << (cluster == &a ? " (parallel)" : " (serial)");
      }
    }
  }
}

// The filters that per-container zone maps used to prune (a job the
// container lacks) or could not (an unindexed attribute) now scan like
// any other; on every index each answer equals the unpruned reading, a
// brute-force filter of every row in index-key order.  An absent job as
// the prefix still scans nothing.
TEST(Container, ZoneMapsMatchUnprunedResults) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  Rng rng(5);
  std::vector<Object> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(make_event(schema, 1 + static_cast<std::uint64_t>(i % 3),
                              rng.uniform_int(0, 7), rng.uniform(0, 50), "w",
                              rng.uniform()));
    c.insert(rows.back());
  }
  const std::vector<Filter> filters{
      {{"timestamp", rows[17].values[schema->attr_id("timestamp")]}},
      {{"job_id", std::uint64_t{2}}},
      {{"job_id", std::uint64_t{9}}},  // a job the container lacks
      {{"rank", std::int64_t{6}}},
      {{"op", std::string("w")}},  // unindexed attr
      {{"job_id", std::uint64_t{2}}, {"rank", std::int64_t{6}}},
  };
  for (std::size_t f = 0; f < filters.size(); ++f) {
    for (const IndexDef& index : schema->indices()) {
      std::vector<std::pair<KeyBytes, std::size_t>> want;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const bool match = std::all_of(
            filters[f].begin(), filters[f].end(), [&](const Condition& cond) {
              return oracle_equal(rows[r].values[schema->attr_id(cond.attr)],
                                  cond.value);
            });
        if (!match) continue;
        KeyBytes key;
        encode_key_into(key, rows[r], index);
        want.emplace_back(std::move(key), r);
      }
      std::sort(want.begin(), want.end());
      const auto got = c.select("events", index.name, filters[f]);
      ASSERT_EQ(got.size(), want.size()) << "filter " << f << " on "
                                         << index.name;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i]->values, rows[want[i].second].values)
            << "filter " << f << " on " << index.name << " at " << i;
      }
    }
  }
  EXPECT_TRUE(c.query("events", "job_rank_time", filters[2]).empty());
  EXPECT_EQ(c.last_scanned(), 0u);
  EXPECT_TRUE(c.query("events", "time", filters[2]).empty());
  EXPECT_EQ(c.last_scanned(), rows.size());
}

// Regression for a race the annotation pass surfaced: query() is const
// but mutates the last_scanned_ diagnostic, and the cluster runs
// per-shard queries on real threads — two concurrent queries against one
// container raced on it (now behind the stats mutex).
TEST(Container, ConcurrentQueriesKeepStatsCoherent) {
  Container c;
  const auto schema = test_schema();
  c.register_schema(schema);
  for (int t = 0; t < 64; ++t) {
    c.insert(make_event(schema, 1, t % 4, t * 1.0, "w", 0.1));
  }
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  // A job the container does not hold: an empty prefix range.
  const Filter absent{{"job_id", std::uint64_t{9}}};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &absent] {
      for (int i = 0; i < kIters; ++i) {
        EXPECT_TRUE(c.query("events", "job_rank_time", absent).empty());
        // Identical queries => every thread should observe a coherent
        // value written by SOME absent-job query, never a torn/stale mix.
        EXPECT_EQ(c.last_scanned(), 0u);
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace dlc::dsos
