// Tests for the sharded ingest executor: parallel ingest must be
// indistinguishable from serial ingest (same routing, same per-shard
// insertion order, byte-identical query results and rollup cells) across
// worker counts, under queue-full back-pressure and wherever a commit
// group is cut; and a row must commit without drain().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dsos/cluster.hpp"
#include "dsos/csv.hpp"
#include "dsos/ingest.hpp"
#include "dsos/schema.hpp"
#include "rollup/engine.hpp"
#include "rollup/policy.hpp"
#include "rollup_fixtures.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace dlc::dsos {
namespace {

SchemaPtr test_schema() {
  return SchemaBuilder("events")
      .attr("job_id", AttrType::kUint64)
      .attr("rank", AttrType::kInt64)
      .attr("timestamp", AttrType::kTimestamp)
      .attr("op", AttrType::kString)
      .attr("dur", AttrType::kDouble)
      .index("job_rank_time", {"job_id", "rank", "timestamp"})
      .index("time", {"timestamp"})
      .build();
}

std::vector<Object> random_events(const SchemaPtr& schema, std::size_t n,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Object> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(make_object(
        schema, {1 + rng.next_u64() % 4,
                 static_cast<std::int64_t>(rng.next_u64() % 16),
                 rng.uniform() * 100.0, std::string(i % 2 ? "read" : "write"),
                 rng.uniform()}));
  }
  return out;
}

DsosCluster make_cluster(std::size_t shards, const SchemaPtr& schema) {
  ClusterConfig cfg;
  cfg.shard_count = shards;
  cfg.shard_attr = "rank";
  DsosCluster cluster(cfg);
  cluster.register_schema(schema);
  return cluster;
}

// Full job_rank_time scan, rendered row by row: byte-identical fingerprints
// mean identical contents in identical order.
std::string fingerprint(DsosCluster& cluster,
                        std::string_view schema = "events") {
  std::string out;
  for (const Object* hit : cluster.query(schema, "job_rank_time")) {
    out += csv_row(*hit);
    out += '\n';
  }
  return out;
}

std::string ingest_fingerprint(std::size_t shards, IngestConfig icfg,
                               const SchemaPtr& schema,
                               const std::vector<Object>& events,
                               IngestStats* stats_out = nullptr) {
  DsosCluster cluster = make_cluster(shards, schema);
  {
    IngestExecutor ex(cluster, icfg);
    for (const Object& obj : events) ex.submit(obj);
    ex.drain();
    if (stats_out) *stats_out = ex.stats();
  }
  return fingerprint(cluster);
}

TEST(Ingest, SerialModeInsertsInline) {
  const auto schema = test_schema();
  DsosCluster cluster = make_cluster(4, schema);
  IngestExecutor ex(cluster, IngestConfig{});  // workers = 0
  EXPECT_EQ(ex.workers(), 0u);
  for (Object& obj : random_events(schema, 50, 7)) ex.submit(std::move(obj));
  // No drain needed: serial mode inserts on the submit() call itself.
  EXPECT_EQ(ex.stats().submitted, 50u);
  EXPECT_EQ(ex.stats().inserted, 50u);
  EXPECT_EQ(cluster.query("events", "job_rank_time").size(), 50u);
}

TEST(Ingest, WorkersClampedToShardCount) {
  const auto schema = test_schema();
  DsosCluster cluster = make_cluster(2, schema);
  IngestConfig icfg;
  icfg.workers = 8;
  IngestExecutor ex(cluster, icfg);
  EXPECT_EQ(ex.workers(), 2u);
}

// The determinism contract: any worker count produces the same bytes as
// serial ingest, because routing happens on the submitting thread and each
// shard has exactly one inserting worker.
TEST(Ingest, ParallelMatchesSerialAcrossWorkerCounts) {
  const auto schema = test_schema();
  const std::vector<Object> events = random_events(schema, 400, 23);

  std::string serial;
  {
    DsosCluster cluster = make_cluster(8, schema);
    for (const Object& obj : events) cluster.insert(obj);
    serial = fingerprint(cluster);
  }
  ASSERT_FALSE(serial.empty());

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    IngestConfig icfg;
    icfg.workers = workers;
    IngestStats stats;
    EXPECT_EQ(ingest_fingerprint(8, icfg, schema, events, &stats), serial)
        << "workers=" << workers;
    EXPECT_EQ(stats.submitted, events.size());
    EXPECT_EQ(stats.inserted, events.size());
  }
}

// Tiny queues force push_wait back-pressure on the submitting thread;
// results must still be byte-identical (blocked, not dropped).
TEST(Ingest, BackpressureKeepsResultsIdentical) {
  const auto schema = test_schema();
  const std::vector<Object> events = random_events(schema, 300, 41);

  std::string serial;
  {
    DsosCluster cluster = make_cluster(2, schema);
    for (const Object& obj : events) cluster.insert(obj);
    serial = fingerprint(cluster);
  }

  IngestConfig icfg;
  icfg.workers = 2;
  icfg.queue_capacity = 1;
  // Hold the workers at their first commit group until the releaser
  // fires: with capacity-1 rings the submitting thread is then
  // guaranteed to block in push_wait, so the back-pressure duration
  // counters must come back nonzero (not just "may, depending on
  // scheduling").
  std::atomic<bool> release{false};
  icfg.commit_hook = [&release] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.store(true, std::memory_order_release);
  });
  IngestStats stats;
  EXPECT_EQ(ingest_fingerprint(2, icfg, schema, events, &stats), serial);
  releaser.join();
  // A capacity-1 ring holds one row, so every commit group is one event.
  EXPECT_EQ(stats.batches, events.size());
  EXPECT_EQ(stats.inserted, events.size());
  EXPECT_GT(stats.backpressure_waits, 0u);
  EXPECT_GT(stats.backpressure_wait_ns, 0u);
}

// Events without the shard attribute fall back to round-robin routing,
// which mutates cluster state — exactly why routing stays on the caller
// thread.  Parallel ingest must agree with serial here too.
TEST(Ingest, RoundRobinRoutingStaysDeterministic) {
  const auto schema = SchemaBuilder("plain")
                          .attr("seq", AttrType::kUint64)
                          .attr("note", AttrType::kString)
                          .index("seq", {"seq"})
                          .build();
  ClusterConfig cfg;
  cfg.shard_count = 4;
  cfg.shard_attr = "rank";  // absent from the schema
  auto build = [&](std::size_t workers) {
    DsosCluster cluster(cfg);
    cluster.register_schema(schema);
    std::vector<std::size_t> per_shard;
    {
      IngestConfig icfg;
      icfg.workers = workers;
      IngestExecutor ex(cluster, icfg);
      for (std::uint64_t i = 0; i < 100; ++i) {
        ex.submit(make_object(schema, {i, std::string("n")}));
      }
      ex.drain();
    }
    for (std::size_t s = 0; s < cluster.shard_count(); ++s) {
      per_shard.push_back(
          cluster.shard(s).container().select("plain", "seq").size());
    }
    return per_shard;
  };
  const auto serial = build(0);
  EXPECT_EQ(serial, build(4));
  // Round-robin spreads 100 events evenly over 4 shards.
  EXPECT_EQ(serial, (std::vector<std::size_t>{25, 25, 25, 25}));
}

TEST(Ingest, DrainThenReuse) {
  const auto schema = test_schema();
  DsosCluster cluster = make_cluster(4, schema);
  IngestConfig icfg;
  icfg.workers = 4;
  IngestExecutor ex(cluster, icfg);
  for (Object& obj : random_events(schema, 64, 3)) ex.submit(std::move(obj));
  ex.drain();
  EXPECT_EQ(cluster.query("events", "job_rank_time").size(), 64u);
  for (Object& obj : random_events(schema, 32, 5)) ex.submit(std::move(obj));
  ex.drain();
  EXPECT_EQ(cluster.query("events", "job_rank_time").size(), 96u);
  EXPECT_EQ(ex.stats().submitted, 96u);
  EXPECT_EQ(ex.stats().inserted, 96u);
}

// Regression for a race the thread-safety annotation pass surfaced: the
// submitted/batches/backpressure counters were plain fields written by
// submit() and read by stats() with no synchronisation.  A monitoring
// thread polling stats() during ingest was a data race (now atomics).
// Run under TSan this test fails on the old code.
TEST(Ingest, StatsReadableWhileIngesting) {
  const auto schema = test_schema();
  DsosCluster cluster = make_cluster(4, schema);
  IngestConfig icfg;
  icfg.workers = 4;
  IngestExecutor ex(cluster, icfg);

  std::atomic<bool> done{false};
  std::uint64_t last_submitted = 0;
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      const IngestStats s = ex.stats();
      // Monotone non-decreasing and never past what drain() will settle
      // on; inserted can trail submitted but never exceed it.
      EXPECT_GE(s.submitted, last_submitted);
      EXPECT_LE(s.inserted, s.submitted);
      last_submitted = s.submitted;
      std::this_thread::yield();
    }
  });
  for (Object& obj : random_events(schema, 2000, 41)) {
    ex.submit(std::move(obj));
  }
  ex.drain();
  done.store(true, std::memory_order_release);
  monitor.join();
  const IngestStats s = ex.stats();
  EXPECT_EQ(s.submitted, 2000u);
  EXPECT_EQ(s.inserted, 2000u);
}

// ------------------------------------------------------ group commit ----

/// Commit observer on one container: records how many rows it held at
/// its latest commit and lets the test wait for a count, with a deadline
/// instead of a fixed sleep.
class CommitWatch final : public CommitSink {
 public:
  explicit CommitWatch(const Container& container) : container_(container) {}
  void on_insert(const Object&) override {}
  bool on_commit() override {
    {
      const util::LockGuard lock(m_);
      committed_ = container_.size();
    }
    cv_.notify_all();
    return true;
  }
  /// True once `rows` rows are committed; false when 5 s pass first.
  bool wait_for_rows(std::size_t rows) {
    util::UniqueLock lock(m_);
    return cv_.wait_until(
        lock, std::chrono::steady_clock::now() + std::chrono::seconds(5),
        [&]() DLC_REQUIRES(m_) { return committed_ >= rows; });
  }

 private:
  const Container& container_;
  util::Mutex m_{"CommitWatch"};
  util::CondVar cv_;
  std::size_t committed_ DLC_GUARDED_BY(m_) = 0;
};

// A lone row, and the tail behind a full group, commit within the
// writer's linger: nothing waits for a batch to fill or for drain().
TEST(Ingest, IdleRowBecomesVisibleWithoutDrain) {
  const auto schema = test_schema();
  DsosCluster cluster = make_cluster(2, schema);
  std::vector<std::unique_ptr<CommitWatch>> watches;
  for (std::size_t s = 0; s < cluster.shard_count(); ++s) {
    watches.push_back(
        std::make_unique<CommitWatch>(cluster.shard(s).container()));
    cluster.shard(s).container().add_observer(watches.back().get());
  }
  auto row = [&](double ts) {
    return make_object(schema, {std::uint64_t{1}, std::int64_t{3}, ts,
                                std::string("write"), 0.5});
  };
  const std::size_t shard = cluster.route(row(0.0));
  {
    IngestConfig icfg;
    icfg.workers = 2;
    IngestExecutor ex(cluster, icfg);
    ex.submit(row(0.0));
    EXPECT_TRUE(watches[shard]->wait_for_rows(1))
        << "a lone row was not committed without drain()";
    for (int i = 1; i <= 65; ++i) ex.submit(row(i));  // a group plus a tail
    EXPECT_TRUE(watches[shard]->wait_for_rows(66))
        << "the rows behind a full group were not committed without drain()";
    EXPECT_EQ(cluster.shard(shard).container().size(), 66u);
    EXPECT_EQ(ex.stats().submitted, 66u);
  }
  for (std::size_t s = 0; s < cluster.shard_count(); ++s) {
    cluster.shard(s).container().remove_observer(watches[s].get());
  }
}

/// Rows on a coarse, non-decreasing clock over few ranks: many rows share
/// a (job, rank, time) key, so the job_rank_time scan shows the order they
/// were inserted in, and no row falls behind a sealed rollup bucket.
std::vector<Object> tied_events(const SchemaPtr& schema, std::size_t n,
                                std::uint64_t seed) {
  const char* ops[] = {"read", "write", "open", "close"};
  Rng rng(seed);
  std::vector<Object> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t rank = rng.uniform_int(0, 3);
    const std::string op = ops[rng.uniform_int(0, 3)];
    const double ts = 100.0 + 0.25 * static_cast<double>(i / 8);
    out.push_back(make_object(
        schema, {std::string("POSIX"), "nid0004" + std::to_string(rank % 2),
                 rank, std::uint64_t{1}, op, rng.uniform(1e-4, 0.01),
                 rng.uniform_int(0, 4096), ts}));
  }
  return out;
}

struct GroupRun {
  std::string rows;                          // job_rank_time scan
  std::map<std::string, std::string> cells;  // policy -> cells
  std::uint64_t late_dropped = 0;
  IngestStats stats;
};

/// Ingests `events` into a one-shard cluster with the default rollup
/// policies attached (short buckets, no grace, so cells seal between
/// groups).  `groups` empty: serial ingest.  Otherwise one writer
/// commits exactly those group sizes: its commit_hook holds each group
/// until the next one is queued behind it, and the submitter queues a
/// group only once the writer has fixed the one before.
GroupRun ingest_in_groups(const SchemaPtr& schema,
                          const std::vector<Object>& events,
                          const std::vector<std::size_t>& groups) {
  std::vector<rollup::PolicyConfig> policies =
      rollup::default_rollup_policies();
  for (rollup::PolicyConfig& p : policies) {
    p.bucket_s = std::min(p.bucket_s, 10.0);
    p.grace_s = 0.0;
  }
  DsosCluster cluster = make_cluster(1, schema);
  rollup::RollupEngineConfig rcfg;
  rcfg.policies = policies;
  rollup::RollupEngine engine(rcfg);
  engine.attach(cluster);
  std::vector<std::size_t> through;  // rows in groups 0..g
  for (const std::size_t g : groups) {
    through.push_back(g + (through.empty() ? 0 : through.back()));
  }
  if (groups.empty()) through.push_back(events.size());
  std::atomic<std::size_t> fixed{0};   // groups the writer has fixed
  std::atomic<std::size_t> pushed{0};  // rows submitted
  IngestConfig icfg;
  icfg.workers = groups.empty() ? 0 : 1;
  icfg.commit_hook = [&] {
    const std::size_t g = fixed.load(std::memory_order_relaxed);
    fixed.store(g + 1, std::memory_order_release);
    const std::size_t want =
        g + 1 < through.size() ? through[g + 1] : events.size();
    while (pushed.load(std::memory_order_acquire) < want) {
      std::this_thread::yield();
    }
  };
  GroupRun run;
  {
    IngestExecutor ex(cluster, icfg);
    std::size_t next = 0;
    for (std::size_t g = 0; g < through.size(); ++g) {
      while (fixed.load(std::memory_order_acquire) < g) {
        std::this_thread::yield();
      }
      for (; next < through[g]; ++next) {
        ex.submit(events[next]);
        pushed.store(next + 1, std::memory_order_release);
      }
    }
    ex.drain();
    run.stats = ex.stats();
  }
  engine.flush();
  run.rows = fingerprint(cluster, "darshan_data");
  for (const rollup::PolicyConfig& p : policies) {
    run.cells[p.name] = rollup::cell_fingerprint(engine.query(p.name, {}));
  }
  run.late_dropped = engine.stats().late_dropped;
  engine.detach();
  return run;
}

// Wherever the linger or a full group cuts a commit group, the stored
// rows and every rollup cell are those of serial ingest.  Groups of
// 1..130 rows (a lone row, partial groups, and past one and two full
// groups) are forced through the commit hook, not by timing.
TEST(Ingest, GroupsCutAtAnyPointMatchSerial) {
  const auto schema = rollup::rollup_schema();
  Rng rng(61);
  std::vector<std::size_t> groups = {1};  // the row that wakes the writer
  std::size_t total = 1;
  while (total < 2500) {
    groups.push_back(static_cast<std::size_t>(rng.uniform_int(1, 130)));
    total += groups.back();
  }
  const std::vector<Object> events = tied_events(schema, total, 67);
  const GroupRun serial = ingest_in_groups(schema, events, {});
  const GroupRun grouped = ingest_in_groups(schema, events, groups);
  ASSERT_FALSE(serial.rows.empty());
  EXPECT_EQ(grouped.rows, serial.rows);
  EXPECT_EQ(grouped.stats.batches, groups.size());
  EXPECT_EQ(grouped.stats.inserted, total);
  EXPECT_EQ(serial.late_dropped, 0u);
  EXPECT_EQ(grouped.late_dropped, 0u);
  for (const auto& [policy, cells] : serial.cells) {
    EXPECT_FALSE(cells.empty()) << policy;
    EXPECT_EQ(grouped.cells.at(policy), cells) << policy;
  }
}

// -------------------------------------------------------- writer pinning ----

TEST(Ingest, UnpinnedWorkersReportNoPlacement) {
  const auto schema = test_schema();
  DsosCluster cluster = make_cluster(2, schema);
  IngestConfig icfg;
  icfg.workers = 2;  // pin_cpus empty: pin = "none"
  IngestExecutor ex(cluster, icfg);
  for (Object& obj : random_events(schema, 100, 5)) ex.submit(std::move(obj));
  ex.drain();
  const auto placements = ex.writer_placements();
  ASSERT_EQ(placements.size(), 2u);
  for (const auto& p : placements) {
    EXPECT_EQ(p.pinned_cpu, -1);  // never asked to pin
    EXPECT_GE(p.last_cpu, 0);     // but the OS placement is still visible
  }
}

TEST(Ingest, PinnedWorkersReportPlacementAndStayIdentical) {
  // pin = "auto" resolution: workers pin round-robin over the
  // allowed-CPU list (util::resolve_pin_cpus), report the pin back via
  // writer_placements(), and — pinning being pure placement — produce
  // byte-identical results to the unpinned serial ingest.
  const auto schema = test_schema();
  const auto events = random_events(schema, 500, 7);
  util::PinPolicy policy;
  ASSERT_TRUE(util::parse_pin_policy("auto", policy));
  const std::vector<int> cpus = util::resolve_pin_cpus(policy);
  ASSERT_FALSE(cpus.empty());  // sched_getaffinity always reports >= 1

  DsosCluster cluster = make_cluster(2, schema);
  IngestConfig icfg;
  icfg.workers = 2;
  icfg.pin_cpus = cpus;
  {
    IngestExecutor ex(cluster, icfg);
    for (const Object& obj : events) ex.submit(obj);
    ex.drain();
    const auto placements = ex.writer_placements();
    ASSERT_EQ(placements.size(), 2u);
    for (std::size_t w = 0; w < placements.size(); ++w) {
      // Pinning to a CPU in the affinity mask must succeed on Linux; the
      // worker then really runs there.
      EXPECT_EQ(placements[w].pinned_cpu, cpus[w % cpus.size()]);
      EXPECT_EQ(placements[w].last_cpu, cpus[w % cpus.size()]);
    }
  }
  EXPECT_EQ(fingerprint(cluster),
            ingest_fingerprint(2, IngestConfig{}, schema, events));
}

TEST(Ingest, ExplicitPinListRoundRobinsAcrossWorkers) {
  // pin = "<list>": more workers than listed CPUs wraps.  A malformed
  // list parses to nothing, and the caller then leaves writers unpinned.
  util::PinPolicy rejected;
  EXPECT_FALSE(util::parse_pin_policy("0,,2", rejected));  // empty item
  EXPECT_FALSE(util::parse_pin_policy("-3", rejected));    // negative CPU
  EXPECT_EQ(rejected.mode, util::PinPolicy::Mode::kNone);  // out untouched
  const auto schema = test_schema();
  const int cpu0 = util::resolve_pin_cpus(util::PinPolicy{
      util::PinPolicy::Mode::kAuto, {}})[0];
  DsosCluster cluster = make_cluster(4, schema);
  IngestConfig icfg;
  icfg.workers = 4;
  icfg.pin_cpus = {cpu0};  // single-entry list: all workers share it
  IngestExecutor ex(cluster, icfg);
  for (Object& obj : random_events(schema, 200, 9)) ex.submit(std::move(obj));
  ex.drain();
  for (const auto& p : ex.writer_placements()) {
    EXPECT_EQ(p.pinned_cpu, cpu0);
    EXPECT_EQ(p.last_cpu, cpu0);
  }
}

}  // namespace
}  // namespace dlc::dsos
