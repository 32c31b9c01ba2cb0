// Durable-store benchmark: the cost of durability and the payoff of
// persisted zone maps, plus the crash-recovery acceptance bar.
//
// Phase 1 ingests the SAME event stream under each store::StoreMode
// (memory / wal / tiered) with the store mounted under the DSOS container
// API, timing insert + group-commit + final flush.  Each mode is timed
// three times and the row reports the median run.  --check adds the fatal
// perf gate: durable-mode ingest (wal and tiered) must hold >= 0.5x the
// memory-mode events/sec — the WAL's group commit is supposed to amortize
// the write, not halve the pipeline (Release builds only; timing gates are
// meaningless under sanitizers).
//
// Phase 2 seals two disjoint job/time partitions into separate segments
// and issues cold queries against the persisted zone maps.  ALWAYS fatal:
// a disjoint-partition filter must prune without decoding a single data
// block, and a fully-disjoint filter must be answered entirely from
// segment headers (read == 0).  Pruning that decodes cold data is a
// correctness bug in the at-rest format, not a tuning problem.
//
// Phase 3 runs the FaultPlan crash campaigns (storecrash at commit, seal,
// compaction write, compaction swap), reopening after each simulated death
// and asserting the ROADMAP bar: zero acknowledged-event loss and
// byte-identical query results against an uninterrupted baseline.  ALWAYS
// fatal.
//
// Writes BENCH_store.json (override path: DLC_BENCH_OUT).  Scale knob:
// DLC_STORE_EVENTS.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dsos/cluster.hpp"
#include "dsos/schema.hpp"
#include "exp/table.hpp"
#include "json/writer.hpp"
#include "relia/fault.hpp"
#include "store/store.hpp"

using namespace dlc;

namespace {

namespace fsys = std::filesystem;

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long parsed = std::atol(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

dsos::SchemaPtr bench_schema() {
  return dsos::SchemaBuilder("darshan_data")
      .attr("job_id", dsos::AttrType::kUint64)
      .attr("rank", dsos::AttrType::kInt64)
      .attr("timestamp", dsos::AttrType::kTimestamp)
      .attr("bytes", dsos::AttrType::kUint64)
      .attr("op", dsos::AttrType::kString)
      .index("job_rank_time", {"job_id", "rank", "timestamp"})
      .build();
}

std::vector<dsos::Object> make_events(const dsos::SchemaPtr& s,
                                      std::size_t n, std::uint64_t job = 1,
                                      std::int64_t ranks = 16,
                                      double t0 = 1.6e9) {
  std::vector<dsos::Object> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back(dsos::make_object(
        s, {job, static_cast<std::int64_t>(i) % ranks,
            t0 + 0.001 * static_cast<double>(i), std::uint64_t{4096 + i},
            std::string(i % 2 ? "write" : "read")}));
  }
  return events;
}

dsos::ClusterConfig cluster_config(std::size_t shards) {
  dsos::ClusterConfig cfg;
  cfg.shard_count = shards;
  cfg.parallel_query = false;
  return cfg;
}

std::string fingerprint(const dsos::DsosCluster& db) {
  std::string out;
  for (const dsos::Object* obj : db.query("darshan_data", "job_rank_time")) {
    out += std::to_string(obj->as_uint("job_id")) + "/";
    out += std::to_string(obj->as_int("rank")) + "/";
    out += std::to_string(obj->as_double("timestamp")) + "/";
    out += std::to_string(obj->as_uint("bytes")) + "/";
    out += obj->as_string("op") + ";";
  }
  return out;
}

/// Scratch directory under the system temp dir; wiped per use.
class BenchDir {
 public:
  explicit BenchDir(const std::string& tag) {
    path_ = (fsys::temp_directory_path() / ("dlc_bench_store_" + tag))
                .string();
    fsys::remove_all(path_);
    fsys::create_directories(path_);
  }
  ~BenchDir() {
    std::error_code ec;
    fsys::remove_all(path_, ec);
  }
  void wipe() {
    fsys::remove_all(path_);
    fsys::create_directories(path_);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

store::StoreConfig mode_config(store::StoreMode mode,
                               const std::string& dir) {
  store::StoreConfig cfg;
  cfg.mode = mode;
  cfg.dir = dir;
  cfg.wal_group_records = 64;
  cfg.seal_bytes = 256 * 1024;
  return cfg;
}

/// One full ingest under `mode`: open -> insert everything -> flush ->
/// close, wall-clock timed end to end (durability included).
double time_ingest(store::StoreMode mode, const std::string& dir,
                   const dsos::SchemaPtr& schema,
                   const std::vector<dsos::Object>& events,
                   std::size_t shards) {
  dsos::DsosCluster db(cluster_config(shards));
  db.register_schema(schema);
  store::Store st(mode_config(mode, dir));
  const double t0 = now_seconds();
  st.open(db);
  for (const dsos::Object& e : events) db.insert(e);
  st.flush_all();
  const double dt = now_seconds() - t0;
  st.close();
  return dt;
}

constexpr std::size_t kReps = 3;

double median_ingest_seconds(store::StoreMode mode, BenchDir& dir,
                             const dsos::SchemaPtr& schema,
                             const std::vector<dsos::Object>& events,
                             std::size_t shards) {
  std::vector<double> times;
  times.reserve(kReps);
  for (std::size_t i = 0; i < kReps; ++i) {
    dir.wipe();  // every run starts from an empty store directory
    times.push_back(time_ingest(mode, dir.path(), schema, events, shards));
  }
  std::sort(times.begin(), times.end());
  return times[kReps / 2];
}

struct CampaignResult {
  std::string plan;
  bool fired = false;
  bool zero_acked_loss = false;
  bool byte_identical = false;
  std::uint64_t torn_tails = 0;
  std::uint64_t quarantined = 0;

  bool ok() const { return fired && zero_acked_loss && byte_identical; }
};

/// One FaultPlan crash campaign: ingest until the armed crash fires,
/// reopen a fresh store on the same directory, resubmit past the
/// recovered frontier, compare against the uninterrupted baseline.
CampaignResult run_campaign(const std::string& plan_text,
                            store::StoreConfig cfg, BenchDir& dir,
                            const dsos::SchemaPtr& schema,
                            const std::vector<dsos::Object>& events,
                            std::size_t shards, bool compact_after) {
  CampaignResult result;
  result.plan = plan_text;
  dir.wipe();
  cfg.dir = dir.path();

  std::string want;
  {
    dsos::DsosCluster baseline(cluster_config(shards));
    baseline.register_schema(schema);
    for (const dsos::Object& e : events) baseline.insert(e);
    want = fingerprint(baseline);
  }

  const relia::FaultPlan plan = relia::parse_fault_plan(plan_text);
  if (!plan.ok()) return result;

  std::vector<std::uint64_t> acked(shards, 0);
  {
    dsos::DsosCluster db(cluster_config(shards));
    db.register_schema(schema);
    store::Store st(cfg);
    st.open(db);
    st.faults().arm_from_plan(plan);
    try {
      for (const dsos::Object& e : events) db.insert(e);
      st.flush_all();
      st.seal_all();
      if (compact_after) st.compact_once();
    } catch (const store::StoreCrash&) {
      result.fired = true;
    }
    if (!result.fired) return result;
    for (std::size_t sh = 0; sh < shards; ++sh) {
      acked[sh] = st.durable_seq(sh);
    }
  }

  dsos::DsosCluster db(cluster_config(shards));
  db.register_schema(schema);
  store::Store st(cfg);
  const store::RecoveryReport rep = st.open(db);
  result.torn_tails = rep.torn_tails;
  result.quarantined = rep.quarantined_segments;
  result.zero_acked_loss = true;
  for (std::size_t sh = 0; sh < shards; ++sh) {
    if (rep.high_seq[sh] < acked[sh]) result.zero_acked_loss = false;
  }
  // At-least-once driver: replay the stream, skipping what recovered.
  std::vector<std::uint64_t> pos(shards, 0);
  for (const dsos::Object& e : events) {
    dsos::Object copy = e;
    const std::size_t sh = db.route(copy);
    if (++pos[sh] <= rep.high_seq[sh]) continue;
    db.insert_at(sh, std::move(copy));
  }
  st.flush_all();
  result.byte_identical = fingerprint(db) == want;
  st.close();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool check = argc > 1 && std::string(argv[1]) == "--check";
  const std::size_t events_n = env_size("DLC_STORE_EVENTS", 40000);
  constexpr std::size_t kShards = 2;
  const auto schema = bench_schema();
  const auto events = make_events(schema, events_n);

  std::printf("== durable store: ingest cost, zone-map pruning, crash "
              "recovery ==\n\n");
  std::printf("%zu events, %zu shards, group commit every 64 rows, "
              "median of %zu runs\n\n",
              events_n, kShards, kReps);

  bool ok = true;
  const auto gate = [&](bool cond, const std::string& what) {
    std::printf("  [%s] %s\n", cond ? "PASS" : "FAIL", what.c_str());
    ok = ok && cond;
  };

  // Phase 1 — ingest throughput per durability mode.
  BenchDir dir("ingest");
  struct ModeRow {
    const char* name;
    store::StoreMode mode;
    double eps = 0.0;
    double relative = 1.0;
  };
  std::vector<ModeRow> modes = {
      {"memory", store::StoreMode::kMemory},
      {"wal", store::StoreMode::kWal},
      {"tiered", store::StoreMode::kTiered},
  };
  for (ModeRow& row : modes) {
    const double s =
        median_ingest_seconds(row.mode, dir, schema, events, kShards);
    row.eps = static_cast<double>(events_n) / s;
  }
  for (ModeRow& row : modes) row.relative = row.eps / modes[0].eps;

  exp::TextTable table({"Mode", "Events/s", "vs memory"});
  for (const ModeRow& row : modes) {
    table.add_row({row.name, exp::cell_f(row.eps, 0),
                   exp::cell_f(row.relative, 2)});
  }
  std::printf("%s\n", table.render().c_str());

  // Phase 2 — persisted zone maps on cold queries (always fatal).
  store::Store::ColdQueryStats disjoint_stats;
  store::Store::ColdQueryStats all_pruned_stats;
  std::size_t disjoint_hits = 0;
  std::size_t all_pruned_hits = 0;
  {
    BenchDir cold_dir("cold");
    dsos::DsosCluster db(cluster_config(1));
    db.register_schema(schema);
    store::Store st(mode_config(store::StoreMode::kTiered, cold_dir.path()));
    st.open(db);
    const std::size_t half = std::max<std::size_t>(events_n / 2, 1);
    // Two disjoint partitions: job 1 around t=1.6e9, job 2 around 3.2e9.
    for (const auto& e : make_events(schema, half, 1, 16, 1.6e9)) {
      db.insert(e);
    }
    st.flush_all();
    st.seal_all();
    for (const auto& e : make_events(schema, half, 2, 16, 3.2e9)) {
      db.insert(e);
    }
    st.flush_all();
    st.seal_all();

    disjoint_hits =
        st.query_cold("darshan_data",
                      {{"job_id", dsos::Cmp::kEq, std::uint64_t{2}}},
                      &disjoint_stats)
            .size();
    all_pruned_hits =
        st.query_cold("darshan_data",
                      {{"timestamp", dsos::Cmp::kGt, 9.9e9}},
                      &all_pruned_stats)
            .size();
    st.close();

    std::printf("Cold query over %llu segments:\n",
                static_cast<unsigned long long>(disjoint_stats.segments_total));
    std::printf("  job filter:  %zu hits, %llu pruned, %llu blocks read\n",
                disjoint_hits,
                static_cast<unsigned long long>(disjoint_stats.pruned),
                static_cast<unsigned long long>(disjoint_stats.read));
    std::printf("  time filter: %zu hits, %llu pruned, %llu blocks read\n\n",
                all_pruned_hits,
                static_cast<unsigned long long>(all_pruned_stats.pruned),
                static_cast<unsigned long long>(all_pruned_stats.read));
  }

  // Phase 3 — crash campaigns (always fatal).
  const std::size_t campaign_events = std::min<std::size_t>(events_n, 2000);
  const auto campaign_stream = make_events(schema, campaign_events);
  store::StoreConfig crash_cfg = mode_config(store::StoreMode::kTiered, "");
  crash_cfg.seal_bytes = 2048;          // seals happen during ingest
  crash_cfg.compact_min_bytes = 1 << 20;  // everything is a candidate
  BenchDir crash_dir("crash");
  std::vector<CampaignResult> campaigns;
  campaigns.push_back(run_campaign(
      "storecrash commit after 4", mode_config(store::StoreMode::kWal, ""),
      crash_dir, schema, campaign_stream, kShards, false));
  campaigns.push_back(run_campaign("storecrash commit after 7", crash_cfg,
                                   crash_dir, schema, campaign_stream,
                                   kShards, false));
  campaigns.push_back(run_campaign("storecrash seal after 2", crash_cfg,
                                   crash_dir, schema, campaign_stream,
                                   kShards, false));
  campaigns.push_back(run_campaign("storecrash compact after 1", crash_cfg,
                                   crash_dir, schema, campaign_stream,
                                   kShards, true));
  campaigns.push_back(run_campaign("storecrash compact_swap after 1",
                                   crash_cfg, crash_dir, schema,
                                   campaign_stream, kShards, true));

  std::printf("Crash campaigns (%zu events each):\n", campaign_events);
  for (const CampaignResult& c : campaigns) {
    std::printf("  %-32s fired=%s acked-loss=%s identical=%s "
                "(torn=%llu quarantined=%llu)\n",
                c.plan.c_str(), c.fired ? "yes" : "NO",
                c.zero_acked_loss ? "zero" : "LOST",
                c.byte_identical ? "yes" : "NO",
                static_cast<unsigned long long>(c.torn_tails),
                static_cast<unsigned long long>(c.quarantined));
  }
  std::printf("\n");

  // BENCH_store.json — the benchmark trajectory artifact.
  {
    const char* out_path = std::getenv("DLC_BENCH_OUT");
    const std::string path = out_path ? out_path : "BENCH_store.json";
    json::Writer w;
    w.begin_object();
    w.member("bench", "store");
    w.member("events", static_cast<std::uint64_t>(events_n));
    w.member("shards", static_cast<std::uint64_t>(kShards));
    w.member("runs_per_config", static_cast<std::uint64_t>(kReps));
    w.member("timing", "median");
    w.key("modes");
    w.begin_array();
    for (const ModeRow& row : modes) {
      w.begin_object();
      w.member("mode", row.name);
      w.member("events_per_sec", row.eps);
      w.member("relative_to_memory", row.relative);
      w.end_object();
    }
    w.end_array();
    w.key("cold_query");
    w.begin_object();
    w.member("segments", disjoint_stats.segments_total);
    w.member("disjoint_filter_pruned", disjoint_stats.pruned);
    w.member("disjoint_filter_read", disjoint_stats.read);
    w.member("all_pruned_filter_read", all_pruned_stats.read);
    w.end_object();
    w.key("crash_campaigns");
    w.begin_array();
    for (const CampaignResult& c : campaigns) {
      w.begin_object();
      w.member("plan", c.plan);
      w.member("fired", c.fired);
      w.member("zero_acked_loss", c.zero_acked_loss);
      w.member("byte_identical", c.byte_identical);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream out(path);
    out << w.str() << "\n";
    std::printf("wrote %s\n\n", path.c_str());
  }

  // Correctness gates: ALWAYS fatal.
  gate(disjoint_stats.pruned >= 1 && disjoint_stats.read == 1,
       "disjoint-partition filter prunes the other partition's segment");
  gate(disjoint_hits == std::max<std::size_t>(events_n / 2, 1),
       "cold query returns every row of the matching partition");
  gate(all_pruned_stats.read == 0 && all_pruned_hits == 0,
       "fully-disjoint filter is answered from headers (0 blocks read)");
  for (const CampaignResult& c : campaigns) {
    gate(c.ok(), "crash campaign \"" + c.plan +
                     "\": fired, zero acked loss, byte-identical");
  }
  if (check) {
    for (const ModeRow& row : modes) {
      if (row.mode == store::StoreMode::kMemory) continue;
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "%s-mode ingest >= 0.5x memory mode (got %.2fx)",
                    row.name, row.relative);
      gate(row.relative >= 0.5, buf);
    }
  }

  if (!ok) {
    std::printf("\nstore gate FAILED\n");
    return 1;
  }
  std::printf("\nstore gate passed\n");
  return 0;
}
