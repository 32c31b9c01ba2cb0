// Rollup benchmark: the "dashboard queries never touch raw events" bar.
//
// Simulates one HMMER-like run (DLC_ROLLUP_EVENTS events, default 3M:
// 4 jobs x 64 ranks, ~90% tiny reads/writes plus open/close, 1 ms event
// spacing) and ingests the SAME deterministic stream twice into a
// 4-shard DSOS cluster:
//   baseline:  no rollup engine attached,
//   rollup:    the default storage policies (op_counts, node_requests,
//              rank_durations, throughput) folding every commit,
// timing both to price the engine's ingest overhead.  Commits fire every
// 64 Ki events, so bucket sealing (and spilling into the engine's sealed
// cluster) happens *during* ingest exactly as it would under a live
// sampler.
//
// Phase 2 serves every covered dashboard panel (Fig. 5, 6, 7, 7-summary,
// 9) twice — the raw analysis/figures.hpp scan over all events vs
// rollup::panel_* over cells — asserting, always fatally:
//   - each panel IS served from a rollup policy (coverage is correctness),
//   - the served frame matches the raw frame: identical shape, row order
//     and values — bit-exact for counts, integer byte sums, strings and
//     time buckets; duration sums/means to 1e-9 relative (float
//     accumulation order),
//   - duration quantiles are histogram-resolution exact: for every
//     rank_durations cell, percentile(p) equals log_bucket_hi of the log
//     bucket holding the true rank-convention sample of the raw
//     durations (the sparse cell histogram loses sub-bucket precision,
//     nothing else).
// --check adds the fatal perf gates: every covered panel >= 100x faster
// from rollups, and rollup-attached ingest >= 0.9x baseline events/sec
// (< ~11% overhead).  Timings are the median of DLC_ROLLUP_REPS (3)
// runs; an ingest is timed on the ingest thread's CPU clock.  Writes
// BENCH_rollup.json (override: DLC_BENCH_OUT).
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/figures.hpp"
#include "analysis/frame.hpp"
#include "core/schema_darshan.hpp"
#include "dsos/cluster.hpp"
#include "exp/table.hpp"
#include "json/writer.hpp"
#include "rollup/engine.hpp"
#include "rollup/policy.hpp"
#include "rollup/serve.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace dlc;

namespace {

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

/// CPU seconds the calling thread has run.  An ingest arm is serial on
/// this thread, so its CPU time is its whole cost; unlike the wall clock
/// it leaves out the time the thread spent descheduled.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

constexpr std::uint64_t kSeed = 929;
constexpr std::size_t kRanks = 64;
constexpr std::size_t kJobs = 4;
constexpr std::size_t kCommitEvery = 1 << 16;

/// Event i of the simulated HMMER run.  Deterministic in (seed, i) so the
/// baseline and rollup arms ingest byte-identical streams.
dsos::Object make_event(const dsos::SchemaPtr& schema, Rng& rng,
                        std::size_t i) {
  const std::uint64_t job = 1 + i % kJobs;
  const double ts = 1.6e9 + 0.001 * static_cast<double>(i);
  const auto rank = rng.uniform_int(0, static_cast<std::int64_t>(kRanks) - 1);
  const double u = rng.uniform();
  const char* op = u < 0.05 ? "open" : u < 0.10 ? "close"
                            : u < 0.55 ? "read" : "write";
  const bool meta = u < 0.10;  // open/close carry no payload
  const auto seg_len =
      meta ? std::int64_t{-1}
           : static_cast<std::int64_t>(rng.next_u64() % (1 << 16));
  const double seg_dur = rng.uniform(1e-5, 5e-3);
  return dsos::make_object(
      schema,
      {
          std::string("POSIX"),                                  // module
          std::uint64_t{99066},                                  // uid
          "nid" + std::to_string(41 + rank % 4),                 // ProducerName
          std::int64_t{0},                                       // switches
          std::string("seq.fasta"),                              // file
          rank,                                                  // rank
          std::int64_t{-1},                                      // flushes
          std::uint64_t{1000 + i % 32},                          // record_id
          std::string("/usr/bin/hmmsearch"),                     // exe
          static_cast<std::int64_t>(rng.next_u64() % (1 << 22)), // max_byte
          std::string("MOD"),                                    // type
          job,                                                   // job_id
          std::string(op),                                       // op
          static_cast<std::int64_t>(rng.next_u64() % 64),        // cnt
          static_cast<std::int64_t>(rng.next_u64() % (1 << 22)), // seg_off
          std::int64_t{-1},                                      // seg_pt_sel
          seg_dur,                                               // seg_dur
          seg_len,                                               // seg_len
          std::int64_t{-1},                                      // seg_ndims
          std::int64_t{-1},  // seg_reg_hslab
          std::int64_t{-1},  // seg_irreg_hslab
          std::string("N/A"),  // seg_data_set
          std::int64_t{-1},    // seg_npoints
          ts,                  // seg_timestamp
      });
}

struct IngestArm {
  // Declaration order matters: the engine observes the cluster, so it
  // must be destroyed first (members destroy in reverse order).
  std::unique_ptr<dsos::DsosCluster> cluster;
  std::shared_ptr<rollup::RollupEngine> engine;
  double seconds = 0.0;
};

/// One timed ingest of the full stream: serial insert, commit every
/// kCommitEvery events (sealing/spilling rollup buckets as a live
/// deployment would), final commit + flush inside the timed region, all
/// on the calling thread and timed on its CPU clock.
IngestArm run_ingest(const dsos::SchemaPtr& schema, std::size_t events,
                     bool with_rollups) {
  IngestArm arm;
  dsos::ClusterConfig ccfg;
  ccfg.shard_count = 4;
  ccfg.shard_attr = "rank";
  arm.cluster = std::make_unique<dsos::DsosCluster>(ccfg);
  arm.cluster->register_schema(schema);
  if (with_rollups) {
    rollup::RollupEngineConfig rcfg;
    rcfg.policies = rollup::default_rollup_policies();
    arm.engine = std::make_shared<rollup::RollupEngine>(rcfg);
    arm.engine->attach(*arm.cluster);
  }
  Rng rng(kSeed);
  const std::size_t shards = arm.cluster->shard_count();
  const double t0 = thread_cpu_seconds();
  for (std::size_t i = 0; i < events; ++i) {
    arm.cluster->insert(make_event(schema, rng, i));
    if ((i + 1) % kCommitEvery == 0) {
      for (std::size_t s = 0; s < shards; ++s) arm.cluster->commit_shard(s);
    }
  }
  for (std::size_t s = 0; s < shards; ++s) arm.cluster->commit_shard(s);
  if (arm.engine) arm.engine->flush();
  arm.seconds = thread_cpu_seconds() - t0;
  return arm;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Interleaved A/B timing: baseline rep, rollup rep, baseline rep, …
/// so both arms see the same allocator/page-cache evolution — running
/// all of one arm first skews the second arm by several percent at
/// multi-million-event heaps, the exact campaign-drift artifact the
/// paper's interleaved runs (§VI-A) exist to kill.  Only the LAST
/// rollup rep's cluster/engine survive (the stream is deterministic,
/// so every rep builds identical state); everything else is dropped
/// immediately to keep one cluster in memory.  Returns the last rollup
/// arm with both medians attached.
struct AbTiming {
  IngestArm rolled;
  double baseline_seconds = 0.0;
};

AbTiming ab_ingest(const dsos::SchemaPtr& schema, std::size_t events,
                   std::size_t reps) {
  std::vector<double> base_s, roll_s;
  AbTiming ab;
  for (std::size_t r = 0; r < reps; ++r) {
    base_s.push_back(run_ingest(schema, events, false).seconds);
    // Move-assignment would replace (and destroy) the old cluster
    // before the old engine observing it; release them in the reverse
    // dependency order first.
    ab.rolled.engine.reset();
    ab.rolled.cluster.reset();
    ab.rolled = run_ingest(schema, events, true);
    roll_s.push_back(ab.rolled.seconds);
  }
  ab.baseline_seconds = median(base_s);
  ab.rolled.seconds = median(roll_s);
  return ab;
}

/// Frame equivalence: identical shape, row order, column types.  Ints and
/// strings bit-exact.  Doubles bit-exact too, EXCEPT columns whose name
/// mentions "dur": those aggregate float durations, and the rollup side
/// sums per (cell, slot-order) while the raw scan sums in merged index
/// order — same values, different association — so 1e-9 relative.
bool frames_match(const analysis::DataFrame& raw,
                  const analysis::DataFrame& rolled, std::string& why) {
  char buf[256];
  if (raw.column_names() != rolled.column_names()) {
    why = "column sets differ";
    return false;
  }
  if (raw.rows() != rolled.rows()) {
    std::snprintf(buf, sizeof(buf), "row counts differ: raw %zu vs rollup %zu",
                  raw.rows(), rolled.rows());
    why = buf;
    return false;
  }
  for (const std::string& col : raw.column_names()) {
    if (raw.column_type(col) != rolled.column_type(col)) {
      why = "column type differs: " + col;
      return false;
    }
    const bool dur_col = col.find("dur") != std::string::npos;
    for (std::size_t r = 0; r < raw.rows(); ++r) {
      switch (raw.column_type(col)) {
        case analysis::ColType::kInt:
          if (raw.get_int(r, col) != rolled.get_int(r, col)) {
            std::snprintf(buf, sizeof(buf), "%s[%zu]: %lld vs %lld",
                          col.c_str(), r,
                          static_cast<long long>(raw.get_int(r, col)),
                          static_cast<long long>(rolled.get_int(r, col)));
            why = buf;
            return false;
          }
          break;
        case analysis::ColType::kString:
          if (raw.get_string(r, col) != rolled.get_string(r, col)) {
            why = col + "[" + std::to_string(r) + "]: \"" +
                  raw.get_string(r, col) + "\" vs \"" +
                  rolled.get_string(r, col) + "\"";
            return false;
          }
          break;
        case analysis::ColType::kDouble: {
          const double a = raw.get_double(r, col);
          const double b = rolled.get_double(r, col);
          const double tol =
              dur_col ? 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)})
                      : 0.0;
          if (!(std::fabs(a - b) <= tol)) {
            std::snprintf(buf, sizeof(buf), "%s[%zu]: %.17g vs %.17g",
                          col.c_str(), r, a, b);
            why = buf;
            return false;
          }
          break;
        }
      }
    }
  }
  return true;
}

struct PanelTiming {
  std::string panel;
  std::string policy;
  bool from_rollup = false;
  bool equivalent = false;
  std::string mismatch;
  double raw_ms = 0.0;
  double rollup_ms = 0.0;
  double speedup = 0.0;
  std::size_t rows = 0;
};

template <typename RawFn, typename RollupFn>
PanelTiming time_panel(const std::string& name, std::size_t raw_iters,
                       std::size_t rollup_iters, RawFn&& raw_fn,
                       RollupFn&& rollup_fn) {
  PanelTiming t;
  t.panel = name;
  analysis::DataFrame raw_frame;
  {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < raw_iters; ++i) raw_frame = raw_fn();
    t.raw_ms = (now_seconds() - t0) * 1e3 / static_cast<double>(raw_iters);
  }
  rollup::PanelResult served;
  {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < rollup_iters; ++i) served = rollup_fn();
    t.rollup_ms =
        (now_seconds() - t0) * 1e3 / static_cast<double>(rollup_iters);
  }
  t.from_rollup = served.from_rollup;
  t.policy = served.policy;
  t.equivalent = frames_match(raw_frame, served.frame, t.mismatch);
  t.speedup = t.rollup_ms > 0 ? t.raw_ms / t.rollup_ms : 0.0;
  t.rows = served.frame.rows();
  return t;
}

/// Histogram-resolution quantile check over every rank_durations cell:
/// the cell histogram's percentile(p) must equal log_bucket_percentile
/// over a dense histogram rebuilt from the exact raw durations — i.e.
/// the sparse histogram is exactly as lossy as its bucket geometry and
/// no lossier, and it must land inside the bucket holding the true
/// rank-convention sample.
bool check_quantiles(const rollup::RollupEngine& engine,
                     const dsos::DsosCluster& db, double bucket_w,
                     std::size_t& cells_checked, std::string& why) {
  // Exact per-cell duration samples from one raw scan, in index order.
  struct RefKey {
    std::uint64_t job;
    std::int64_t rank;
    std::string op;
    std::int64_t bucket;
    auto operator<=>(const RefKey&) const = default;
  };
  std::map<RefKey, std::vector<double>> ref;
  for (const dsos::Object* obj : db.query("darshan_data", "job_rank_time")) {
    const std::string& op = obj->as_string("op");
    if (op != "read" && op != "write") continue;
    const double ts = obj->as_double("seg_timestamp");
    ref[{obj->as_uint("job_id"), obj->as_int("rank"), op,
         static_cast<std::int64_t>(std::floor(ts / bucket_w))}]
        .push_back(obj->as_double("seg_dur"));
  }
  const std::vector<rollup::RollupCell> cells =
      engine.query("rank_durations", {});
  if (cells.size() != ref.size()) {
    why = "cell count " + std::to_string(cells.size()) + " vs raw " +
          std::to_string(ref.size());
    return false;
  }
  char buf[256];
  for (const rollup::RollupCell& cell : cells) {
    const auto it = ref.find({cell.key.job, cell.key.rank, cell.key.op,
                              cell.key.bucket});
    if (it == ref.end()) {
      why = "cell without raw counterpart (job " +
            std::to_string(cell.key.job) + " rank " +
            std::to_string(cell.key.rank) + ")";
      return false;
    }
    std::vector<double> durs = it->second;
    const auto n = static_cast<std::uint64_t>(durs.size());
    if (cell.agg.count != n ||
        cell.agg.dur_hist.total() != n) {
      why = "cell count/histogram total mismatch";
      return false;
    }
    // Min/max pick, and the sum accumulates, the same doubles in the
    // same (insert = index) order: bit-exact.
    std::sort(durs.begin(), durs.end());
    double sum = 0.0;
    for (const double d : it->second) sum += d;
    if (cell.agg.dur_min != durs.front() || cell.agg.dur_max != durs.back() ||
        cell.agg.dur_sum != sum) {
      why = "cell min/max/sum not bit-exact vs raw scan order";
      return false;
    }
    // Dense reference histogram over the exact samples: the sparse cell
    // histogram must reproduce log_bucket_percentile bit-for-bit.
    std::array<std::uint64_t, kLogBucketCount> dense{};
    for (const double d : it->second) {
      dense[log_bucket_index(
          static_cast<std::uint64_t>(std::llround(d * 1e9)))]++;
    }
    for (const double p : {50.0, 95.0, 99.0}) {
      const auto rank = static_cast<std::size_t>(std::max(
          1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
      const std::uint64_t exact_ns =
          static_cast<std::uint64_t>(std::llround(durs[rank - 1] * 1e9));
      const double expect =
          log_bucket_percentile(dense.data(), dense.size(), p);
      const double got = cell.agg.dur_hist.percentile(p);
      const std::uint32_t exact_idx = log_bucket_index(exact_ns);
      if (got != expect ||
          got < static_cast<double>(log_bucket_lo(exact_idx)) ||
          got > static_cast<double>(log_bucket_hi(exact_idx))) {
        std::snprintf(buf, sizeof(buf),
                      "p%.0f: histogram %.17g vs dense reference %.17g "
                      "(exact sample %llu ns)",
                      p, got, expect,
                      static_cast<unsigned long long>(exact_ns));
        why = buf;
        return false;
      }
    }
  }
  cells_checked = cells.size();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool check = argc > 1 && std::string(argv[1]) == "--check";
  const std::size_t events = env_size("DLC_ROLLUP_EVENTS", 3000000);
  const std::size_t reps = env_size("DLC_ROLLUP_REPS", 3);
  const std::size_t raw_iters = env_size("DLC_ROLLUP_RAW_ITERS", 3);
  const std::size_t rollup_iters = env_size("DLC_ROLLUP_QUERY_ITERS", 100);
  const auto schema = core::darshan_data_schema();

  std::printf("== Rollup sinks: ingest overhead + panel serving ==\n\n");
  std::printf("%zu events (%zu jobs x %zu ranks, 1 ms spacing), default "
              "policies, commit every %zu events\n\n",
              events, kJobs, kRanks, kCommitEvery);

  bool ok = true;
  const auto gate = [&](bool cond, const std::string& what) {
    std::printf("  [%s] %s\n", cond ? "PASS" : "FAIL", what.c_str());
    ok = ok && cond;
  };

  // Phase 1: ingest A/B (median of `reps` identical deterministic runs).
  std::printf("timings are the median of %zu runs per arm\n\n", reps);
  AbTiming ab = ab_ingest(schema, events, reps);
  const double baseline_seconds = ab.baseline_seconds;
  const double baseline_eps =
      static_cast<double>(events) / baseline_seconds;
  const IngestArm& rolled = ab.rolled;
  const double rollup_eps = static_cast<double>(events) / rolled.seconds;
  const double overhead_pct =
      (rolled.seconds / baseline_seconds - 1.0) * 100.0;
  const rollup::RollupStats stats = rolled.engine->stats();

  exp::TextTable ingest_table(
      {"Arm", "Events/s", "CPU s", "Overhead"});
  ingest_table.add_row({"baseline", exp::cell_f(baseline_eps, 0),
                        exp::cell_f(baseline_seconds, 2), "-"});
  ingest_table.add_row({"rollup", exp::cell_f(rollup_eps, 0),
                        exp::cell_f(rolled.seconds, 2),
                        exp::cell_f(overhead_pct, 1) + "%"});
  std::printf("%s\n", ingest_table.render().c_str());
  std::printf("engine: %llu events folded, %llu cells open, %llu sealed "
              "rows in %llu spills, %llu late-dropped\n\n",
              static_cast<unsigned long long>(stats.events),
              static_cast<unsigned long long>(stats.cells_open),
              static_cast<unsigned long long>(stats.sealed_rows),
              static_cast<unsigned long long>(stats.spills),
              static_cast<unsigned long long>(stats.late_dropped));

  // Phase 2: every covered panel, raw scan vs rollup serving, on the
  // SAME cluster (the rollup arm's — contents are identical to baseline).
  const dsos::DsosCluster& db = *rolled.cluster;
  const rollup::RollupEngine* engine = rolled.engine.get();
  std::vector<std::uint64_t> jobs;
  for (std::size_t j = 1; j <= kJobs; ++j) jobs.push_back(j);
  const std::uint64_t fig9_job = 2;

  std::vector<PanelTiming> panels;
  panels.push_back(time_panel(
      "fig5", raw_iters, rollup_iters,
      [&] { return analysis::fig5_op_counts(db, jobs); },
      [&] { return rollup::panel_fig5(engine, db, jobs); }));
  panels.push_back(time_panel(
      "fig6", raw_iters, rollup_iters,
      [&] { return analysis::fig6_requests_per_node(db, jobs); },
      [&] { return rollup::panel_fig6(engine, db, jobs); }));
  panels.push_back(time_panel(
      "fig7", raw_iters, rollup_iters,
      [&] { return analysis::fig7_rank_durations(db, jobs); },
      [&] { return rollup::panel_fig7(engine, db, jobs); }));
  panels.push_back(time_panel(
      "fig7_summary", raw_iters, rollup_iters,
      [&] { return analysis::fig7_job_summary(db, jobs); },
      [&] { return rollup::panel_fig7_summary(engine, db, jobs); }));
  panels.push_back(time_panel(
      "fig9", raw_iters, rollup_iters,
      [&] { return analysis::fig9_throughput_buckets(db, fig9_job, 10.0); },
      [&] { return rollup::panel_fig9(engine, db, fig9_job, 10.0); }));

  exp::TextTable panel_table({"Panel", "Policy", "Rows", "Raw ms",
                              "Rollup ms", "Speedup", "Equivalent"});
  for (const PanelTiming& t : panels) {
    panel_table.add_row({t.panel, t.policy.empty() ? "(raw)" : t.policy,
                         std::to_string(t.rows), exp::cell_f(t.raw_ms, 3),
                         exp::cell_f(t.rollup_ms, 3),
                         exp::cell_f(t.speedup, 1),
                         t.equivalent ? "yes" : "NO"});
  }
  std::printf("%s\n", panel_table.render().c_str());

  // Phase 3: histogram-resolution duration quantiles.
  std::size_t cells_checked = 0;
  std::string quantile_why;
  const bool quantiles_ok =
      check_quantiles(*engine, db, 3600.0, cells_checked, quantile_why);

  // BENCH_rollup.json — the benchmark trajectory artifact.
  {
    const char* out_path = std::getenv("DLC_BENCH_OUT");
    const std::string path = out_path ? out_path : "BENCH_rollup.json";
    json::Writer w;
    w.begin_object();
    w.member("bench", "rollup");
    w.member("events", static_cast<std::uint64_t>(events));
    w.member("runs_per_arm", static_cast<std::uint64_t>(reps));
    w.member("timing", "median");
    w.member("ingest_clock", "thread_cpu");
    w.member("baseline_events_per_sec", baseline_eps);
    w.member("rollup_events_per_sec", rollup_eps);
    w.member("ingest_overhead_pct", overhead_pct);
    {
      const util::CpuBudget cpus = util::cpu_budget();
      w.member("hardware_threads",
               static_cast<std::uint64_t>(cpus.hardware_threads));
      w.member("effective_cpus", static_cast<std::uint64_t>(cpus.effective));
      w.member("effective_cpus_source", cpus.source);
    }
    w.key("engine");
    w.begin_object();
    w.member("events_folded", stats.events);
    w.member("cells_open", stats.cells_open);
    w.member("sealed_rows", stats.sealed_rows);
    w.member("spills", stats.spills);
    w.member("late_dropped", stats.late_dropped);
    w.end_object();
    w.key("panels");
    w.begin_array();
    for (const PanelTiming& t : panels) {
      w.begin_object();
      w.member("panel", t.panel);
      w.member("policy", t.policy);
      w.member("from_rollup", t.from_rollup);
      w.member("rows", static_cast<std::uint64_t>(t.rows));
      w.member("raw_ms", t.raw_ms);
      w.member("rollup_ms", t.rollup_ms);
      w.member("speedup", t.speedup);
      w.member("equivalent", t.equivalent);
      w.end_object();
    }
    w.end_array();
    w.member("quantile_cells_checked",
             static_cast<std::uint64_t>(cells_checked));
    w.member("quantiles_histogram_exact", quantiles_ok);
    w.end_object();
    std::ofstream out(path);
    out << w.str() << "\n";
    std::printf("wrote %s\n\n", path.c_str());
  }

  // Correctness gates: ALWAYS fatal.  A panel silently falling back to
  // the raw scan, or serving different numbers, is a bug regardless of
  // benchmarking mode.
  for (const PanelTiming& t : panels) {
    gate(t.from_rollup, t.panel + " served from a rollup policy (" +
                            (t.policy.empty() ? "FELL BACK TO RAW" : t.policy) +
                            ")");
    gate(t.equivalent,
         t.panel + " rollup frame matches raw scan" +
             (t.equivalent ? "" : " — " + t.mismatch));
  }
  gate(stats.late_dropped == 0, "no events dropped behind a sealed frontier");
  gate(stats.spills > 0 && stats.sealed_rows > 0,
       "buckets sealed during ingest (" + std::to_string(stats.sealed_rows) +
           " rows in " + std::to_string(stats.spills) + " spills)");
  gate(quantiles_ok,
       "duration quantiles histogram-resolution exact across " +
           std::to_string(cells_checked) + " cells" +
           (quantiles_ok ? "" : " — " + quantile_why));
  if (check) {
    char buf[160];
    for (const PanelTiming& t : panels) {
      std::snprintf(buf, sizeof(buf),
                    "%s >= 100x faster from rollups (got %.1fx)",
                    t.panel.c_str(), t.speedup);
      gate(t.speedup >= 100.0, buf);
    }
    // The overhead gate is a timing A/B, and like bench_ingest's and
    // bench_obs's perf gates it needs CPUs to itself: on a 1-CPU
    // affinity/quota box the fold competes with the OS and harness for
    // one core and the gate fails on scheduling physics, not on a
    // regression.  Waive it loudly below 4 effective CPUs — the panel
    // speedup and equivalence gates above are ratios of the same
    // serving path and stay unconditional.
    const util::CpuBudget cpus = util::cpu_budget();
    if (cpus.effective >= 4) {
      std::snprintf(buf, sizeof(buf),
                    "rollup ingest >= 0.9x baseline events/sec (got %.3fx, "
                    "overhead %.1f%%)",
                    rollup_eps / baseline_eps, overhead_pct);
      gate(rollup_eps >= 0.9 * baseline_eps, buf);
    } else {
      std::printf("  [SKIPPED] perf gate WAIVED: rollup ingest >= 0.9x "
                  "baseline events/sec (effective CPUs %zu via %s: hw=%zu "
                  "affinity=%zu quota=%zu; got %.3fx)\n",
                  cpus.effective, cpus.source.c_str(),
                  cpus.hardware_threads, cpus.affinity, cpus.quota_cpus,
                  rollup_eps / baseline_eps);
    }
  }

  if (!ok) {
    std::printf("\nrollup gate FAILED\n");
    return 1;
  }
  std::printf("\nrollup gate passed\n");
  return 0;
}
